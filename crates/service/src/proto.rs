//! The NDJSON request/response protocol, versions 1 and 2.
//!
//! One JSON object per line in both directions. A request may carry a
//! `"v"` version field: absent (or `1`) selects the original v1
//! protocol, `2` selects the session-oriented v2. Whole-program
//! requests work under either version:
//!
//! ```json
//! {"type":"submit","name":"lib1","program":"function f(x){...}","entry":"f",
//!  "arity":1,"harness":"strings","support":"refinement","max_executions":40,
//!  "max_steps":50000,"seed":24301,"ack":false}
//! {"type":"status"}
//! {"type":"stats"}
//! {"type":"shutdown"}
//! ```
//!
//! v2 adds the streaming *session* verbs (`open_session`, `push`,
//! `pop`, `solve`, `close_session`), which pose flip queries against a
//! server-side assumption stack as the trace grows — see the README's
//! "Wire protocol v2" section for the full reference. Every response
//! line starts with the version it answers in (`"v":1` or `"v":2`),
//! and every failure path carries a stable [`ErrorCode`]: v1 errors
//! keep their legacy `message` key (plus the new `code`), v2 errors use
//! `{"v":2,"type":"error","code":…,"msg":…}`.
//!
//! **Determinism contract:** `result` lines carry only fields that are
//! invariant under scheduling — coverage, executions, generated tests,
//! bugs, query verdict counts and the verdict-trail digest — and
//! `solved` lines only verdict-trail fields plus the model inputs.
//! Wall-clock and cache hit/miss splits deliberately live in `stats`
//! instead: the `result` stream of a session is byte-identical for any
//! worker count (`crates/service/tests/service_differential.rs`,
//! `crates/service/tests/streaming_differential.rs` and the
//! `service-smoke` CI job enforce this).

use expose_core::SupportLevel;
use expose_dse::sched::{Completion, LatencySnapshot, Progress, ShardStats};
use expose_dse::sym::{RegexEvent, SymExpr};
use expose_dse::Report;
use strsolve::CacheStats;

use crate::json::{self, Value};
use crate::wire;

/// The wire protocol version a request was posed in (and its response
/// lines answer in).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ProtoVersion {
    /// The original whole-program protocol; selected by an absent `"v"`
    /// field (or an explicit `"v":1`).
    #[default]
    V1,
    /// The versioned session protocol (`"v":2`).
    V2,
}

impl ProtoVersion {
    /// The number rendered into the `"v"` field of response lines.
    pub fn number(self) -> u8 {
        match self {
            ProtoVersion::V1 => 1,
            ProtoVersion::V2 => 2,
        }
    }
}

/// Stable machine-readable error codes — the `code` field of every
/// `error` line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorCode {
    /// The line is not valid JSON.
    MalformedJson,
    /// The line is JSON but a field is missing or has the wrong shape.
    BadRequest,
    /// Unknown `type` verb.
    UnknownVerb,
    /// Unsupported `"v"` value, or a session verb posed without
    /// `"v":2`.
    UnsupportedVersion,
    /// A `push` carried an unparsable regex event, or referenced an
    /// event index beyond the session's event table.
    BadEvent,
    /// A session verb arrived with no session open on the connection.
    NoSession,
    /// `open_session` while the connection already has one open.
    SessionOpen,
    /// `pop` at depth 0, or `solve` at a depth with no pushed clause.
    BadDepth,
    /// A `push` would exceed the configured `max_session_depth`.
    DepthLimit,
    /// Admission control refused the connection: the server is at its
    /// concurrent-connection cap. Retry later.
    Overloaded,
    /// The server is draining (SIGTERM or an operator drain): it is
    /// finishing in-flight work and accepts no new connections or
    /// submissions.
    Draining,
}

impl ErrorCode {
    /// The wire spelling of the code.
    pub fn as_str(self) -> &'static str {
        match self {
            ErrorCode::MalformedJson => "malformed_json",
            ErrorCode::BadRequest => "bad_request",
            ErrorCode::UnknownVerb => "unknown_verb",
            ErrorCode::UnsupportedVersion => "unsupported_version",
            ErrorCode::BadEvent => "bad_event",
            ErrorCode::NoSession => "no_session",
            ErrorCode::SessionOpen => "session_open",
            ErrorCode::BadDepth => "bad_depth",
            ErrorCode::DepthLimit => "depth_limit",
            ErrorCode::Overloaded => "overloaded",
            ErrorCode::Draining => "draining",
        }
    }
}

/// A structured request failure: a stable code, a human-readable
/// message, and the protocol version the error line should answer in.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RequestError {
    /// Machine-readable failure class.
    pub code: ErrorCode,
    /// Human-readable detail.
    pub message: String,
    /// Version of the failing request (best guess for unparsable
    /// lines: V1, matching unversioned clients).
    pub version: ProtoVersion,
}

impl RequestError {
    /// Builds an error with the given code/message/version.
    pub fn new(code: ErrorCode, message: impl Into<String>, version: ProtoVersion) -> RequestError {
        RequestError {
            code,
            message: message.into(),
            version,
        }
    }
}

/// How the entry function's arguments are built (mirrors
/// `expose_dse::Harness` constructors).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HarnessKind {
    /// `n` symbolic string arguments.
    Strings,
    /// One array of `n` symbolic strings.
    StringArray,
}

/// The fields `submit` and `explore` share: the program, how its entry
/// function is called, and the engine overrides both verbs accept.
#[derive(Debug, Clone)]
pub struct ProgramSpec {
    /// Mini-JS program source.
    pub program: String,
    /// Entry function name (default `f`).
    pub entry: String,
    /// Entry arity (default 1).
    pub arity: usize,
    /// Argument construction (default [`HarnessKind::Strings`]).
    pub harness: HarnessKind,
    /// Engine override: regex support level (absent = the session's
    /// configured default).
    pub support: Option<SupportLevel>,
    /// Engine override: interpreter step budget.
    pub max_steps: Option<u64>,
    /// Engine override: clause flips per trace.
    pub max_flips: Option<usize>,
    /// Engine override: per-trace flip-solving workers.
    pub flip_workers: Option<usize>,
}

/// A parsed `submit` request.
#[derive(Debug, Clone)]
pub struct SubmitRequest {
    /// Job label; defaults to `job<id>` at submission.
    pub name: Option<String>,
    /// The program to run and the shared engine overrides.
    pub spec: ProgramSpec,
    /// Engine override: maximum concrete executions.
    pub max_executions: Option<usize>,
    /// Engine override: bucket-sampling seed.
    pub seed: Option<u64>,
    /// Emit an immediate `accepted` line (off by default: acks are
    /// written when the request is read, so they interleave with the
    /// result stream nondeterministically).
    pub ack: bool,
}

/// A parsed `explore` request (v2): one pure-concolic exploration run
/// (see [`expose_dse::explore()`]), streamed as per-iteration
/// `explore_progress` lines plus a final `explore_result` line.
#[derive(Debug, Clone)]
pub struct ExploreRequest {
    /// Run label; defaults to `explore<id>`.
    pub name: Option<String>,
    /// The program to explore and the shared engine overrides.
    pub spec: ProgramSpec,
    /// Exploration iteration budget (absent = the orchestrator
    /// default).
    pub iterations: Option<usize>,
    /// Corpus-size budget (absent = the orchestrator default).
    pub max_corpus: Option<usize>,
}

/// A parsed `open_session` request (v2).
#[derive(Debug, Clone)]
pub struct OpenSessionRequest {
    /// Session label; defaults to `session<id>`.
    pub name: Option<String>,
    /// Regex support level override (absent = the service default).
    pub support: Option<SupportLevel>,
    /// How many concrete inputs the recorded trace consumed — controls
    /// the padding of SAT input vectors, exactly like a whole-program
    /// trace's `inputs_used`.
    pub inputs_used: usize,
    /// Per-session depth-limit override, clamped by the service's
    /// configured `max_session_depth` (a tenant can only lower the
    /// cap).
    pub max_depth: Option<usize>,
}

/// A parsed `push` request (v2): one taken path-condition clause plus
/// the regex events it (or later clauses) will reference.
#[derive(Debug, Clone)]
pub struct PushRequest {
    /// New regex events, appended to the session's event table in
    /// order. Event indices in expressions refer to that table.
    pub events: Vec<RegexEvent>,
    /// The clause's branch condition.
    pub cond: SymExpr,
    /// The direction concretely taken.
    pub taken: bool,
}

/// A parsed request line.
#[derive(Debug, Clone)]
pub enum Request {
    /// Submit one DSE job.
    Submit(Box<SubmitRequest>),
    /// Report session progress counters.
    Status,
    /// Report cache and shard statistics.
    Stats,
    /// Report the full observability snapshot: scheduler queue depths,
    /// latency quantiles, caches, lifetime totals, admission counters.
    Metrics,
    /// Close the session: drain queued jobs, then finish the stream.
    Shutdown,
    /// Open a streaming solve session on this connection (v2).
    OpenSession(Box<OpenSessionRequest>),
    /// Push one taken clause onto the open session's stack (v2).
    Push(Box<PushRequest>),
    /// Retract the most recently pushed clause (v2).
    Pop,
    /// Solve the flip of clause `depth` against the prefix `0..depth`
    /// (v2).
    Solve {
        /// Clause index to flip (0-based; must be below the session
        /// depth).
        depth: usize,
    },
    /// Close the open streaming session (v2).
    CloseSession,
    /// Run one pure-concolic exploration loop, streaming per-iteration
    /// progress (v2).
    Explore(Box<ExploreRequest>),
}

fn parse_support(s: &str) -> Result<SupportLevel, String> {
    match s {
        "concrete" => Ok(SupportLevel::Concrete),
        "modeling" => Ok(SupportLevel::Modeling),
        "captures" => Ok(SupportLevel::Captures),
        "refinement" => Ok(SupportLevel::Refinement),
        other => Err(format!(
            "unknown support level {other:?} (expected concrete|modeling|captures|refinement)"
        )),
    }
}

fn parse_harness(s: &str) -> Result<HarnessKind, String> {
    match s {
        "strings" => Ok(HarnessKind::Strings),
        "string-array" | "string_array" => Ok(HarnessKind::StringArray),
        other => Err(format!(
            "unknown harness {other:?} (expected strings|string-array)"
        )),
    }
}

fn opt_str(value: &Value, key: &str) -> Result<Option<String>, String> {
    match value.get(key) {
        None | Some(Value::Null) => Ok(None),
        Some(Value::Str(s)) => Ok(Some(s.clone())),
        Some(_) => Err(format!("{key} must be a string")),
    }
}

fn opt_u64(value: &Value, key: &str) -> Result<Option<u64>, String> {
    match value.get(key) {
        None | Some(Value::Null) => Ok(None),
        Some(v) => v
            .as_u64()
            .map(Some)
            .ok_or_else(|| format!("{key} must be a non-negative integer")),
    }
}

fn opt_usize(value: &Value, key: &str) -> Result<Option<usize>, String> {
    Ok(opt_u64(value, key)?.map(|n| n as usize))
}

/// Parses the [`ProgramSpec`] fields of a `submit` or `explore` line.
fn parse_program_spec(
    value: &Value,
    verb: &str,
    bad: &impl Fn(String) -> RequestError,
) -> Result<ProgramSpec, RequestError> {
    let program = opt_str(value, "program")
        .map_err(bad)?
        .ok_or_else(|| bad(format!("{verb} requires \"program\"")))?;
    let support = match opt_str(value, "support").map_err(bad)? {
        Some(s) => Some(parse_support(&s).map_err(bad)?),
        None => None,
    };
    let harness = match opt_str(value, "harness").map_err(bad)? {
        Some(s) => parse_harness(&s).map_err(bad)?,
        None => HarnessKind::Strings,
    };
    Ok(ProgramSpec {
        program,
        entry: opt_str(value, "entry")
            .map_err(bad)?
            .unwrap_or_else(|| "f".to_string()),
        arity: opt_usize(value, "arity").map_err(bad)?.unwrap_or(1),
        harness,
        support,
        max_steps: opt_u64(value, "max_steps").map_err(bad)?,
        max_flips: opt_usize(value, "max_flips").map_err(bad)?,
        flip_workers: opt_usize(value, "flip_workers").map_err(bad)?,
    })
}

/// Parses one request line, returning the request and the protocol
/// version it was posed in. Failures carry a stable [`ErrorCode`] plus
/// the best-guess version for rendering the error line.
pub fn parse_request(line: &str) -> Result<(Request, ProtoVersion), RequestError> {
    let value = json::parse(line).map_err(|e| {
        RequestError::new(
            ErrorCode::MalformedJson,
            format!("malformed JSON: {e}"),
            ProtoVersion::V1,
        )
    })?;
    let version = match value.get("v") {
        None => ProtoVersion::V1,
        Some(v) => match v.as_u64() {
            Some(1) => ProtoVersion::V1,
            Some(2) => ProtoVersion::V2,
            _ => {
                return Err(RequestError::new(
                    ErrorCode::UnsupportedVersion,
                    "unsupported protocol version (expected \"v\":1 or \"v\":2)",
                    ProtoVersion::V2,
                ))
            }
        },
    };
    let bad = |message: String| RequestError::new(ErrorCode::BadRequest, message, version);
    let kind = value
        .get("type")
        .and_then(Value::as_str)
        .ok_or_else(|| RequestError::new(ErrorCode::BadRequest, "missing \"type\"", version))?;
    let request = match kind {
        "submit" => Request::Submit(Box::new(SubmitRequest {
            spec: parse_program_spec(&value, kind, &bad)?,
            name: opt_str(&value, "name").map_err(&bad)?,
            max_executions: opt_usize(&value, "max_executions").map_err(&bad)?,
            seed: opt_u64(&value, "seed").map_err(&bad)?,
            ack: value.get("ack").and_then(Value::as_bool).unwrap_or(false),
        })),
        "status" => Request::Status,
        "stats" => Request::Stats,
        "metrics" => Request::Metrics,
        "shutdown" => Request::Shutdown,
        "open_session" | "push" | "pop" | "solve" | "close_session" | "explore"
            if version != ProtoVersion::V2 =>
        {
            return Err(RequestError::new(
                ErrorCode::UnsupportedVersion,
                format!("{kind:?} is a protocol-v2 verb; send it with \"v\":2"),
                version,
            ))
        }
        "open_session" => {
            let support = match opt_str(&value, "support").map_err(&bad)? {
                Some(s) => Some(parse_support(&s).map_err(&bad)?),
                None => None,
            };
            Request::OpenSession(Box::new(OpenSessionRequest {
                name: opt_str(&value, "name").map_err(&bad)?,
                support,
                inputs_used: opt_usize(&value, "inputs_used").map_err(&bad)?.unwrap_or(0),
                max_depth: opt_usize(&value, "max_depth").map_err(&bad)?,
            }))
        }
        "push" => {
            let events = match value.get("events") {
                None | Some(Value::Null) => Vec::new(),
                Some(Value::Arr(items)) => {
                    let mut events = Vec::with_capacity(items.len());
                    for item in items {
                        events.push(
                            wire::parse_event(item)
                                .map_err(|e| RequestError::new(ErrorCode::BadEvent, e, version))?,
                        );
                    }
                    events
                }
                Some(_) => return Err(bad("\"events\" must be an array".to_string())),
            };
            let cond = value
                .get("cond")
                .ok_or_else(|| bad("push requires a \"cond\" expression".to_string()))
                .and_then(|v| wire::parse_sym_expr(v).map_err(&bad))?;
            let taken = value
                .get("taken")
                .and_then(Value::as_bool)
                .ok_or_else(|| bad("push requires a boolean \"taken\"".to_string()))?;
            Request::Push(Box::new(PushRequest {
                events,
                cond,
                taken,
            }))
        }
        "pop" => Request::Pop,
        "solve" => Request::Solve {
            depth: opt_usize(&value, "depth")
                .map_err(&bad)?
                .ok_or_else(|| bad("solve requires a \"depth\"".to_string()))?,
        },
        "close_session" => Request::CloseSession,
        "explore" => Request::Explore(Box::new(ExploreRequest {
            spec: parse_program_spec(&value, kind, &bad)?,
            name: opt_str(&value, "name").map_err(&bad)?,
            iterations: opt_usize(&value, "iterations").map_err(&bad)?,
            max_corpus: opt_usize(&value, "max_corpus").map_err(&bad)?,
        })),
        other => {
            return Err(RequestError::new(
                ErrorCode::UnknownVerb,
                format!("unknown request type {other:?}"),
                version,
            ))
        }
    };
    Ok((request, version))
}

/// Incremental FNV-1a 64 digest over a verdict trail: one `(sat,
/// refinements, limit_hit)` record per query, in clause order. The
/// streaming differential test folds `solved` responses into one
/// of these and compares against [`verdict_digest`] of the
/// whole-program report — byte-identity of the two trails is the
/// streaming determinism contract.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VerdictDigest(u64);

impl Default for VerdictDigest {
    fn default() -> VerdictDigest {
        VerdictDigest::new()
    }
}

impl VerdictDigest {
    /// The FNV-1a 64 offset basis.
    pub fn new() -> VerdictDigest {
        VerdictDigest(0xcbf2_9ce4_8422_2325)
    }

    /// Folds one query verdict into the digest.
    pub fn update(&mut self, sat: bool, refinements: u64, limit_hit: bool) {
        let mut eat = |byte: u8| {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        };
        eat(u8::from(sat));
        for b in refinements.to_le_bytes() {
            eat(b);
        }
        eat(u8::from(limit_hit));
    }

    /// The digest value so far.
    pub fn finish(self) -> u64 {
        self.0
    }
}

/// FNV-1a 64 digest of a report's verdict trail (see
/// [`VerdictDigest`]). The trail is deterministic per job (caches are
/// verdict-preserving), so the digest lets two runs be compared without
/// shipping every record.
pub fn verdict_digest(report: &Report) -> u64 {
    let mut digest = VerdictDigest::new();
    for q in &report.queries {
        digest.update(q.sat, q.refinements as u64, q.limit_hit);
    }
    digest.finish()
}

fn open_versioned(out: &mut String, version: ProtoVersion) {
    use std::fmt::Write as _;
    let _ = write!(out, "{{\"v\":{}", version.number());
}

/// Renders one `result` line (without trailing newline). Deterministic
/// fields only — see the module docs.
pub fn result_line(completion: &Completion, version: ProtoVersion) -> String {
    let mut out = String::with_capacity(160);
    open_versioned(&mut out, version);
    out.push_str(",\"type\":\"result\",\"job\":");
    out.push_str(&completion.id.to_string());
    out.push_str(",\"name\":");
    json::write_escaped(&mut out, &completion.name);
    match &completion.outcome {
        Err(message) => {
            out.push_str(",\"error\":");
            json::write_escaped(&mut out, message);
        }
        Ok(report) => {
            use std::fmt::Write as _;
            let sat = report.queries.iter().filter(|q| q.sat).count();
            let refinements: usize = report.queries.iter().map(|q| q.refinements).sum();
            let limit_hits = report.queries.iter().filter(|q| q.limit_hit).count();
            let _ = write!(
                out,
                ",\"stmts\":{},\"covered\":{},\"coverage\":{:.4},\"executions\":{},\
                 \"tests\":{},\"queries\":{},\"sat_queries\":{sat},\"refinements\":{refinements},\
                 \"limit_hits\":{limit_hits},\"verdicts\":\"{:016x}\"",
                report.stmt_count,
                report.coverage.len(),
                report.coverage_fraction(),
                report.executions,
                report.tests_generated,
                report.queries.len(),
                verdict_digest(report),
            );
            out.push_str(",\"bugs\":[");
            for (i, (stmt, inputs)) in report.bugs.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                let _ = write!(out, "[{stmt},[");
                for (j, input) in inputs.iter().enumerate() {
                    if j > 0 {
                        out.push(',');
                    }
                    json::write_escaped(&mut out, input);
                }
                out.push_str("]]");
            }
            out.push(']');
        }
    }
    out.push('}');
    out
}

/// Renders a structured `error` line. Both versions carry the stable
/// `code`; v1 keeps its legacy `message` key, v2 uses `msg`.
pub fn error_line(error: &RequestError) -> String {
    match error.version {
        ProtoVersion::V1 => format!(
            "{{\"v\":1,\"type\":\"error\",\"code\":\"{}\",\"message\":{}}}",
            error.code.as_str(),
            json::escaped(&error.message)
        ),
        ProtoVersion::V2 => format!(
            "{{\"v\":2,\"type\":\"error\",\"code\":\"{}\",\"msg\":{}}}",
            error.code.as_str(),
            json::escaped(&error.message)
        ),
    }
}

/// Renders a `status` line from a progress snapshot.
pub fn status_line(progress: &Progress, workers: usize, version: ProtoVersion) -> String {
    format!(
        "{{\"v\":{},\"type\":\"status\",\"workers\":{workers},\"submitted\":{},\"drained\":{},\
         \"inflight\":{},\"resequencing\":{}}}",
        version.number(),
        progress.submitted,
        progress.drained,
        progress.inflight,
        progress.resequencing
    )
}

/// Cache counters for a `stats` line. Hits and misses of all three
/// caches are rendered; resident bytes and evictions of the model and
/// verdict caches (the byte-budget accounting of long-lived sessions).
#[derive(Debug, Clone, Copy, Default)]
pub struct CacheCounters {
    /// The regex-model cache.
    pub model: CacheStats,
    /// The CEGAR verdict cache (a hit is a replayed run).
    pub verdicts: CacheStats,
    /// The DFA tables' totals (zero without session tables).
    pub dfa: CacheStats,
    /// Counters of the connection's active streaming session, if one is
    /// open when the `stats` request arrives.
    pub session: Option<SessionCounters>,
}

/// Per-session counters rendered into `stats` lines while a streaming
/// session is open.
#[derive(Debug, Clone, Copy, Default)]
pub struct SessionCounters {
    /// Session id on this connection.
    pub id: u64,
    /// Current frame depth (pushed clauses minus pops).
    pub depth: u64,
    /// Flip queries assembled so far (session lifetime).
    pub solves: u64,
    /// Prefix frames reused across those queries instead of being
    /// re-canonicalized.
    pub prefix_reuse_hits: u64,
}

/// Connection-lifetime streaming-session totals: unlike the `session`
/// object of a `stats` line (which vanishes when the session closes),
/// these accumulate across every session the connection ran, so a
/// drain-time report is complete.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LifetimeCounters {
    /// Streaming sessions opened on this connection.
    pub sessions_opened: u64,
    /// Streaming sessions closed (the rest are still open).
    pub sessions_closed: u64,
    /// Flip queries solved across all sessions, open and closed.
    pub solves: u64,
    /// Prefix frames reused across those queries.
    pub prefix_reuse_hits: u64,
}

/// Admission-control counters of the multi-connection front-end,
/// rendered into `metrics` lines when the session runs under one.
#[derive(Debug, Clone, Copy, Default)]
pub struct AdmissionCounters {
    /// Connections currently being served.
    pub active: u64,
    /// Connections admitted since the server started.
    pub accepted: u64,
    /// Connections refused with `overloaded`.
    pub rejected_overloaded: u64,
    /// Connections refused with `draining`.
    pub rejected_draining: u64,
    /// Whether the server is draining.
    pub draining: bool,
}

/// One snapshot of a connection's observability counters — what
/// `stats` and `metrics` lines (and `--metrics-text`) render. Latency
/// quantiles come from the scheduler's lock-free histogram
/// ([`LatencySnapshot`]); like `stats`, the whole snapshot is
/// observability data, never part of the deterministic result stream.
#[derive(Debug, Clone)]
pub struct MetricsReport<'a> {
    /// Scheduler progress (queue depths included).
    pub progress: Progress,
    /// Worker shard count.
    pub workers: usize,
    /// Result lines emitted so far on this connection.
    pub jobs: u64,
    /// Error lines emitted so far on this connection.
    pub request_errors: u64,
    /// Per-job wall-time quantiles from the scheduler.
    pub job_latency: LatencySnapshot,
    /// Per-`solve` wall-time quantiles from the streaming sessions.
    pub solve_latency: LatencySnapshot,
    /// Cache counters, plus the open streaming session's.
    pub caches: CacheCounters,
    /// Per-shard scheduling counters.
    pub shards: Vec<ShardStats>,
    /// Connection-lifetime session totals.
    pub lifetime: LifetimeCounters,
    /// Admission counters when serving under a socket front-end.
    pub server: Option<AdmissionCounters>,
    /// The effective `ServiceConfig`, as a rendered JSON object.
    pub config_json: &'a str,
}

/// Writes the cache, shard, session and lifetime fields that `stats`
/// and `metrics` lines share.
fn write_counters(out: &mut String, report: &MetricsReport<'_>) {
    use std::fmt::Write as _;
    let caches = &report.caches;
    let _ = write!(
        out,
        "\"model_cache\":[{},{}],\"verdict_cache\":[{},{}],\"dfa_tables\":[{},{}],\
         \"cache_bytes\":[{},{}],\"cache_evictions\":[{},{}],\"shards\":[",
        caches.model.hits,
        caches.model.misses,
        caches.verdicts.hits,
        caches.verdicts.misses,
        caches.dfa.hits,
        caches.dfa.misses,
        caches.model.bytes,
        caches.verdicts.bytes,
        caches.model.evictions,
        caches.verdicts.evictions,
    );
    for (i, shard) in report.shards.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "{{\"jobs\":{},\"steals\":{}}}",
            shard.jobs_run, shard.steals
        );
    }
    out.push(']');
    if let Some(session) = &caches.session {
        let _ = write!(
            out,
            ",\"session\":{{\"id\":{},\"depth\":{},\"solves\":{},\"prefix_reuse_hits\":{}}}",
            session.id, session.depth, session.solves, session.prefix_reuse_hits
        );
    }
    let lifetime = &report.lifetime;
    let _ = write!(
        out,
        ",\"lifetime\":{{\"sessions_opened\":{},\"sessions_closed\":{},\
         \"solves\":{},\"prefix_reuse_hits\":{}}}",
        lifetime.sessions_opened,
        lifetime.sessions_closed,
        lifetime.solves,
        lifetime.prefix_reuse_hits
    );
}

fn write_latency(out: &mut String, key: &str, latency: &LatencySnapshot) {
    use std::fmt::Write as _;
    let _ = write!(
        out,
        "\"{key}\":{{\"count\":{},\"p50_ms\":{:.3},\"p99_ms\":{:.3},\"max_ms\":{:.3}}}",
        latency.count,
        latency.p50_ms(),
        latency.p99_ms(),
        latency.max_ms()
    );
}

/// Renders a `stats` line (scheduling-dependent observability data —
/// never part of the deterministic result stream).
pub fn stats_line(report: &MetricsReport<'_>, version: ProtoVersion) -> String {
    let mut out = String::with_capacity(256);
    open_versioned(&mut out, version);
    out.push_str(",\"type\":\"stats\",");
    write_counters(&mut out, report);
    out.push_str(",\"config\":");
    out.push_str(report.config_json);
    out.push('}');
    out
}

/// Renders a `metrics` line — the observability endpoint of the
/// service: everything a `stats` line carries plus scheduler progress,
/// latency quantiles and the front-end's admission counters.
pub fn metrics_line(report: &MetricsReport<'_>, version: ProtoVersion) -> String {
    use std::fmt::Write as _;
    let mut out = String::with_capacity(512);
    open_versioned(&mut out, version);
    let _ = write!(
        out,
        ",\"type\":\"metrics\",\"jobs\":{},\"request_errors\":{},\
         \"scheduler\":{{\"workers\":{},\"submitted\":{},\"drained\":{},\
         \"inflight\":{},\"resequencing\":{},\"queued\":{}}},",
        report.jobs,
        report.request_errors,
        report.workers,
        report.progress.submitted,
        report.progress.drained,
        report.progress.inflight,
        report.progress.resequencing,
        report.progress.queued,
    );
    write_latency(&mut out, "job_latency", &report.job_latency);
    out.push(',');
    write_latency(&mut out, "solve_latency", &report.solve_latency);
    out.push(',');
    write_counters(&mut out, report);
    if let Some(server) = &report.server {
        let _ = write!(
            out,
            ",\"server\":{{\"active\":{},\"accepted\":{},\"rejected_overloaded\":{},\
             \"rejected_draining\":{},\"draining\":{}}}",
            server.active,
            server.accepted,
            server.rejected_overloaded,
            server.rejected_draining,
            server.draining,
        );
    }
    out.push_str(",\"config\":");
    out.push_str(report.config_json);
    out.push('}');
    out
}

/// Renders the immediate ack for `"ack": true` submissions.
pub fn accepted_line(id: u64, name: &str, version: ProtoVersion) -> String {
    format!(
        "{{\"v\":{},\"type\":\"accepted\",\"job\":{id},\"name\":{}}}",
        version.number(),
        json::escaped(name)
    )
}

/// Renders the final line of a session's stream. `version` is the
/// highest version any request of the stream used.
pub fn done_line(jobs: u64, version: ProtoVersion) -> String {
    format!(
        "{{\"v\":{},\"type\":\"done\",\"jobs\":{jobs}}}",
        version.number()
    )
}

/// Renders the v2 `session_opened` response.
pub fn session_opened_line(id: u64, name: &str) -> String {
    format!(
        "{{\"v\":2,\"type\":\"session_opened\",\"session\":{id},\"name\":{}}}",
        json::escaped(name)
    )
}

/// Renders the v2 `pushed` response (`depth` = stack depth after the
/// push).
pub fn pushed_line(id: u64, depth: usize) -> String {
    format!("{{\"v\":2,\"type\":\"pushed\",\"session\":{id},\"depth\":{depth}}}")
}

/// Renders the v2 `popped` response (`depth` = stack depth after the
/// pop).
pub fn popped_line(id: u64, depth: usize) -> String {
    format!("{{\"v\":2,\"type\":\"popped\",\"session\":{id},\"depth\":{depth}}}")
}

/// Renders the v2 `solved` response. Deterministic fields only: the
/// verdict trail (`sat`/`refinements`/`limit_hit`), the prefix frames
/// the solve reused, and the SAT model's inputs (`null` when unsat).
pub fn solved_line(id: u64, depth: usize, result: &expose_dse::FlipResult) -> String {
    let mut out = String::with_capacity(128);
    use std::fmt::Write as _;
    let record = &result.record;
    let _ = write!(
        out,
        "{{\"v\":2,\"type\":\"solved\",\"session\":{id},\"depth\":{depth},\
         \"sat\":{},\"refinements\":{},\"limit_hit\":{},\"prefix_reuse\":{}",
        record.sat, record.refinements, record.limit_hit, record.solver.prefix_reuse_hits
    );
    match &result.inputs {
        None => out.push_str(",\"inputs\":null"),
        Some(inputs) => {
            out.push_str(",\"inputs\":[");
            for (i, input) in inputs.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                json::write_escaped(&mut out, input);
            }
            out.push(']');
        }
    }
    out.push('}');
    out
}

/// Renders the v2 `session_closed` response with the session's
/// lifetime counters.
pub fn session_closed_line(id: u64, depth: usize, stats: strsolve::SessionStats) -> String {
    format!(
        "{{\"v\":2,\"type\":\"session_closed\",\"session\":{id},\"depth\":{depth},\
         \"solves\":{},\"prefix_reuse_hits\":{}}}",
        stats.solves, stats.prefix_reuse_hits
    )
}

/// Renders one v2 `explore_progress` line: the deterministic
/// per-iteration snapshot of an exploration run. Like `result` lines,
/// every field is scheduling- and worker-count-invariant, so the
/// progress stream of a run is byte-identical at any flip worker count
/// (the `explore-smoke` CI leg diffs it at 1/2/8).
pub fn explore_progress_line(id: u64, progress: &expose_dse::IterationProgress) -> String {
    format!(
        "{{\"v\":2,\"type\":\"explore_progress\",\"explore\":{id},\"iteration\":{},\
         \"seed\":{},\"seed_hash\":\"{:016x}\",\"new_inputs\":{},\"corpus\":{},\
         \"frontier\":{},\"unique_paths\":{},\"covered_stmts\":{},\
         \"covered_directions\":{},\"bugs\":{},\"queries\":{},\"sat_queries\":{}}}",
        progress.iteration,
        progress.seed,
        progress.seed_hash,
        progress.new_inputs,
        progress.corpus_size,
        progress.frontier,
        progress.unique_paths,
        progress.covered_stmts,
        progress.covered_directions,
        progress.bugs,
        progress.queries,
        progress.sat_queries,
    )
}

/// Renders the final v2 `explore_result` line of an exploration run:
/// totals, the stop reason, the corpus digest, and the whole-run
/// trajectory digest. Deterministic fields only, like `result` lines.
pub fn explore_result_line(id: u64, name: &str, report: &expose_dse::ExploreReport) -> String {
    use std::fmt::Write as _;
    let mut out = String::with_capacity(256);
    let _ = write!(
        out,
        "{{\"v\":2,\"type\":\"explore_result\",\"explore\":{id},\"name\":{}",
        json::escaped(name)
    );
    let _ = write!(
        out,
        ",\"iterations\":{},\"stopped\":\"{}\",\"stmts\":{},\"covered\":{},\
         \"coverage\":{:.4},\"covered_directions\":{},\"unique_paths\":{},\
         \"corpus\":{},\"corpus_dropped\":{},\"queries\":{},\"sat_queries\":{}",
        report.iterations,
        report.stopped.as_str(),
        report.stmt_count,
        report.coverage.len(),
        report.coverage_fraction(),
        report.covered_directions,
        report.unique_paths,
        report.corpus.len(),
        report.corpus.dropped(),
        report.queries.len(),
        report.sat_queries(),
    );
    out.push_str(",\"bugs\":[");
    for (i, bug) in report.bugs.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "[{},[", bug.stmt);
        for (j, input) in bug.inputs.iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            json::write_escaped(&mut out, input);
        }
        out.push_str("]]");
    }
    let _ = write!(
        out,
        "],\"corpus_digest\":\"{:016x}\",\"trajectory\":\"{:016x}\"}}",
        report.corpus.digest(),
        report.trajectory_digest(),
    );
    out
}

/// Renders the v2 `explore_result` error shape for a run that could
/// not start (e.g. the program failed to parse).
pub fn explore_error_line(id: u64, name: &str, error: &str) -> String {
    format!(
        "{{\"v\":2,\"type\":\"explore_result\",\"explore\":{id},\"name\":{},\"error\":{}}}",
        json::escaped(name),
        json::escaped(error),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_minimal_submit() {
        let (request, version) =
            parse_request(r#"{"type":"submit","program":"function f(x){return x;}"}"#)
                .expect("parses");
        assert_eq!(version, ProtoVersion::V1, "unversioned = v1");
        let Request::Submit(submit) = request else {
            panic!("submit");
        };
        assert_eq!(submit.spec.entry, "f");
        assert_eq!(submit.spec.arity, 1);
        assert_eq!(submit.spec.support, None, "absent = session default");
        assert_eq!(submit.spec.harness, HarnessKind::Strings);
        assert!(!submit.ack);
    }

    #[test]
    fn parses_full_submit() {
        let line = r#"{"v":2,"type":"submit","name":"j","program":"function g(a,b){}","entry":"g",
            "arity":2,"harness":"string-array","support":"captures","max_executions":8,
            "max_steps":1000,"max_flips":4,"seed":7,"flip_workers":2,"ack":true}"#
            .replace('\n', " ");
        let (request, version) = parse_request(&line).expect("parses");
        assert_eq!(version, ProtoVersion::V2);
        let Request::Submit(submit) = request else {
            panic!("submit");
        };
        assert_eq!(submit.name.as_deref(), Some("j"));
        assert_eq!(submit.spec.entry, "g");
        assert_eq!(submit.spec.arity, 2);
        assert_eq!(submit.spec.harness, HarnessKind::StringArray);
        assert_eq!(submit.spec.support, Some(SupportLevel::Captures));
        assert_eq!(submit.max_executions, Some(8));
        assert_eq!(submit.spec.max_steps, Some(1000));
        assert_eq!(submit.spec.max_flips, Some(4));
        assert_eq!(submit.seed, Some(7));
        assert_eq!(submit.spec.flip_workers, Some(2));
        assert!(submit.ack);
    }

    #[test]
    fn rejects_bad_requests_with_stable_codes() {
        let code = |line: &str| parse_request(line).expect_err("rejects").code;
        assert_eq!(code("not json"), ErrorCode::MalformedJson);
        assert_eq!(code(r#"{"type":"submit"}"#), ErrorCode::BadRequest);
        assert_eq!(code(r#"{"type":"warp"}"#), ErrorCode::UnknownVerb);
        assert_eq!(
            code(r#"{"type":"submit","program":"x","support":"quantum"}"#),
            ErrorCode::BadRequest
        );
        assert_eq!(code(r#"{"program":"x"}"#), ErrorCode::BadRequest);
        assert_eq!(
            code(r#"{"v":3,"type":"status"}"#),
            ErrorCode::UnsupportedVersion
        );
        assert_eq!(
            code(r#"{"v":"two","type":"status"}"#),
            ErrorCode::UnsupportedVersion
        );
    }

    #[test]
    fn parses_explore_requests() {
        let err = parse_request(r#"{"type":"explore","program":"function f(x){}"}"#)
            .expect_err("explore is v2-only");
        assert_eq!(err.code, ErrorCode::UnsupportedVersion);

        let (request, version) = parse_request(
            r#"{"v":2,"type":"explore","name":"e","program":"function g(a){}","entry":"g",
                "iterations":5,"max_corpus":64,"flip_workers":2}"#
                .replace('\n', " ")
                .as_str(),
        )
        .expect("parses");
        assert_eq!(version, ProtoVersion::V2);
        let Request::Explore(explore) = request else {
            panic!("explore");
        };
        assert_eq!(explore.name.as_deref(), Some("e"));
        assert_eq!(explore.spec.entry, "g");
        assert_eq!(explore.iterations, Some(5));
        assert_eq!(explore.max_corpus, Some(64));
        assert_eq!(explore.spec.flip_workers, Some(2));
        assert_eq!(explore.spec.support, None);

        let err = parse_request(r#"{"v":2,"type":"explore"}"#).expect_err("program required");
        assert_eq!(err.code, ErrorCode::BadRequest);
    }

    #[test]
    fn explore_lines_render() {
        let progress = expose_dse::IterationProgress {
            iteration: 2,
            seed: 1,
            seed_hash: 0xabcd,
            new_inputs: 3,
            corpus_size: 4,
            frontier: 3,
            unique_paths: 2,
            covered_stmts: 9,
            covered_directions: 4,
            bugs: 1,
            queries: 5,
            sat_queries: 3,
        };
        let line = explore_progress_line(0, &progress);
        crate::json::parse(&line).expect("valid JSON");
        assert_eq!(
            line,
            "{\"v\":2,\"type\":\"explore_progress\",\"explore\":0,\"iteration\":2,\
             \"seed\":1,\"seed_hash\":\"000000000000abcd\",\"new_inputs\":3,\"corpus\":4,\
             \"frontier\":3,\"unique_paths\":2,\"covered_stmts\":9,\
             \"covered_directions\":4,\"bugs\":1,\"queries\":5,\"sat_queries\":3}"
        );

        let error = explore_error_line(7, "bad", "parse: oops");
        crate::json::parse(&error).expect("valid JSON");
        assert_eq!(
            error,
            r#"{"v":2,"type":"explore_result","explore":7,"name":"bad","error":"parse: oops"}"#
        );

        let mut corpus = expose_dse::CorpusStore::new();
        corpus.insert(vec!["x".into()], vec![(1, true)], None);
        let report = expose_dse::ExploreReport {
            iterations: 1,
            stmt_count: 6,
            coverage: [1u32, 2, 3].into_iter().collect(),
            covered_directions: 2,
            unique_paths: 1,
            corpus,
            bugs: vec![expose_dse::ExploreBug {
                stmt: 4,
                inputs: vec!["\"q\"".into()],
                trail_digest: 9,
            }],
            progress: vec![progress],
            stopped: expose_dse::StopReason::Iterations,
            queries: Vec::new(),
        };
        let line = explore_result_line(3, "run", &report);
        crate::json::parse(&line).expect("valid JSON");
        assert!(
            line.starts_with(r#"{"v":2,"type":"explore_result","explore":3,"name":"run""#),
            "{line}"
        );
        assert!(line.contains(r#""stopped":"iterations""#), "{line}");
        assert!(line.contains(r#""bugs":[[4,["\"q\""]]]"#), "{line}");
        assert!(line.contains(r#""corpus_digest":""#), "{line}");
        assert!(line.contains(r#""trajectory":""#), "{line}");
    }

    #[test]
    fn session_verbs_require_v2() {
        for verb in ["open_session", "push", "pop", "solve", "close_session"] {
            let err = parse_request(&format!("{{\"type\":\"{verb}\"}}"))
                .expect_err("v1 session verb rejected");
            assert_eq!(err.code, ErrorCode::UnsupportedVersion, "{verb}");
            assert_eq!(err.version, ProtoVersion::V1);
        }
        let (request, _) = parse_request(r#"{"v":2,"type":"pop"}"#).expect("v2 pop parses");
        assert!(matches!(request, Request::Pop));
    }

    #[test]
    fn parses_session_verbs() {
        let (request, _) = parse_request(
            r#"{"v":2,"type":"open_session","name":"t0","inputs_used":2,"support":"refinement"}"#,
        )
        .expect("parses");
        let Request::OpenSession(open) = request else {
            panic!("open_session");
        };
        assert_eq!(open.name.as_deref(), Some("t0"));
        assert_eq!(open.inputs_used, 2);
        assert_eq!(open.support, Some(SupportLevel::Refinement));

        let (request, _) = parse_request(
            r#"{"v":2,"type":"push","events":[{"regex":"^a+$","flags":"","subject":["in",0]}],"cond":["test",0],"taken":true}"#,
        )
        .expect("parses");
        let Request::Push(push) = request else {
            panic!("push");
        };
        assert_eq!(push.events.len(), 1);
        assert_eq!(push.events[0].regex.source, "^a+$");
        assert_eq!(push.cond, SymExpr::TestResult { event: 0 });
        assert!(push.taken);

        let (request, _) = parse_request(r#"{"v":2,"type":"solve","depth":3}"#).expect("parses");
        assert!(matches!(request, Request::Solve { depth: 3 }));

        let err = parse_request(r#"{"v":2,"type":"solve"}"#).expect_err("depth required");
        assert_eq!(err.code, ErrorCode::BadRequest);
        let err = parse_request(
            r#"{"v":2,"type":"push","events":[{"regex":"+","flags":"","subject":["in",0]}],"cond":["test",0],"taken":true}"#,
        )
        .expect_err("bad regex");
        assert_eq!(err.code, ErrorCode::BadEvent);
    }

    #[test]
    fn result_line_shapes() {
        let error = Completion {
            id: 3,
            name: "bad \"job\"".into(),
            outcome: Err("parse: oops".into()),
        };
        let line = result_line(&error, ProtoVersion::V1);
        assert_eq!(
            line,
            r#"{"v":1,"type":"result","job":3,"name":"bad \"job\"","error":"parse: oops"}"#
        );
        // Every rendered line must itself parse as JSON.
        crate::json::parse(&line).expect("valid JSON");

        let ok = Completion {
            id: 0,
            name: "w".into(),
            outcome: Ok(Report {
                stmt_count: 4,
                executions: 2,
                tests_generated: 1,
                bugs: vec![(2, vec!["<t>".into()])],
                ..Report::default()
            }),
        };
        let line = result_line(&ok, ProtoVersion::V2);
        crate::json::parse(&line).expect("valid JSON");
        assert!(line.starts_with(r#"{"v":2,"type":"result""#), "{line}");
        assert!(line.contains("\"bugs\":[[2,[\"<t>\"]]]"), "{line}");
        assert!(line.contains("\"verdicts\":\"cbf29ce484222325\""), "{line}");
    }

    #[test]
    fn error_lines_by_version() {
        let v1 = error_line(&RequestError::new(
            ErrorCode::MalformedJson,
            "bad",
            ProtoVersion::V1,
        ));
        assert_eq!(
            v1,
            r#"{"v":1,"type":"error","code":"malformed_json","message":"bad"}"#
        );
        let v2 = error_line(&RequestError::new(
            ErrorCode::BadDepth,
            "pop at depth 0",
            ProtoVersion::V2,
        ));
        assert_eq!(
            v2,
            r#"{"v":2,"type":"error","code":"bad_depth","msg":"pop at depth 0"}"#
        );
        crate::json::parse(&v1).expect("valid JSON");
        crate::json::parse(&v2).expect("valid JSON");
    }

    #[test]
    fn session_lines_render() {
        assert_eq!(
            session_opened_line(4, "t1"),
            r#"{"v":2,"type":"session_opened","session":4,"name":"t1"}"#
        );
        assert_eq!(
            pushed_line(4, 2),
            r#"{"v":2,"type":"pushed","session":4,"depth":2}"#
        );
        assert_eq!(
            popped_line(4, 1),
            r#"{"v":2,"type":"popped","session":4,"depth":1}"#
        );
        let sat = expose_dse::FlipResult {
            inputs: Some(vec!["a\"b".into(), String::new()]),
            record: expose_dse::QueryRecord {
                sat: true,
                refinements: 2,
                solver: strsolve::SolveStats {
                    prefix_reuse_hits: 3,
                    ..Default::default()
                },
                ..Default::default()
            },
        };
        assert_eq!(
            solved_line(4, 3, &sat),
            r#"{"v":2,"type":"solved","session":4,"depth":3,"sat":true,"refinements":2,"limit_hit":false,"prefix_reuse":3,"inputs":["a\"b",""]}"#
        );
        let unsat = expose_dse::FlipResult {
            inputs: None,
            record: expose_dse::QueryRecord::default(),
        };
        assert!(solved_line(0, 0, &unsat).contains("\"inputs\":null"));
        let closed = session_closed_line(
            4,
            1,
            strsolve::SessionStats {
                solves: 5,
                prefix_reuse_hits: 9,
            },
        );
        assert_eq!(
            closed,
            r#"{"v":2,"type":"session_closed","session":4,"depth":1,"solves":5,"prefix_reuse_hits":9}"#
        );
        crate::json::parse(&closed).expect("valid JSON");
    }

    #[test]
    fn digest_tracks_verdicts() {
        let mut report = Report::default();
        let base = verdict_digest(&report);
        report.queries.push(expose_dse::QueryRecord {
            sat: true,
            ..Default::default()
        });
        let one = verdict_digest(&report);
        assert_ne!(base, one);
        report.queries[0].refinements = 3;
        assert_ne!(one, verdict_digest(&report));
    }
}
