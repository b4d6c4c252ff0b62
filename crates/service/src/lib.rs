//! The ExpoSE job service: a long-running NDJSON front-end over the
//! work-stealing DSE scheduler.
//!
//! The paper's evaluation shape — thousands of independent DSE jobs —
//! is exactly what a service should amortize: [`ServeOptions::serve`]
//! runs one session (submit jobs, query status/stats/metrics, stream
//! re-sequenced results) by pumping a transport's lines through the
//! thread-free [`Connection`] core, all sessions of a process share one warm
//! [`expose_dse::CacheSet`], and the `expose-serve` binary exposes the
//! whole thing over stdio, a Unix socket, or TCP behind one `--listen`
//! surface ([`transport`]), with admission control and graceful drain
//! ([`server`]). [`serial_reference`] renders the one-worker batch
//! reference its streams are checked against.
//!
//! Protocol v2 adds *streaming solve sessions* on top: a client
//! replays a trace clause by clause (`open_session`/`push`) and poses
//! flip queries (`solve`) against the server-side assumption stack as
//! it grows, with verdicts byte-identical to the in-process
//! incremental sessions of `expose_dse::TraceFlipSession`.
//!
//! See [`proto`] for the wire protocol and its determinism contract:
//! the `result` stream of a session is byte-identical for any worker
//! count.

#![warn(missing_docs)]

pub mod connection;
pub mod json;
pub mod proto;
pub mod server;
pub mod session;
pub mod stream;
pub mod transport;
pub mod wire;

pub use connection::{Backend, Connection, Flow};
pub use proto::{
    parse_request, result_line, verdict_digest, ErrorCode, ExploreRequest, LifetimeCounters,
    ProtoVersion, Request, RequestError, SubmitRequest, VerdictDigest,
};
pub use server::{serve_listener, ServerState, ServerSummary};
pub use session::{ServeOptions, ServiceConfig, ServiceSummary};
pub use transport::{Listen, Listener};

use std::io::{self, BufRead, Write};

use expose_dse::sched::Completion;
use expose_dse::BatchOptions;

use crate::json::escaped;
use crate::session::job_from_submit;

/// Execution budget for [`corpus_submit_lines`] (mirrors the bench
/// harness presets: quick for PR CI, full for the nightly run).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CorpusBudget {
    /// 40 executions, 50k interpreter steps — the PR-CI budget.
    Quick,
    /// 48 executions, 100k interpreter steps — the table/nightly
    /// budget.
    Full,
}

impl CorpusBudget {
    /// `(max_executions, max_steps)` of the preset.
    pub fn limits(self) -> (usize, u64) {
        match self {
            CorpusBudget::Quick => (40, 50_000),
            CorpusBudget::Full => (48, 100_000),
        }
    }
}

/// The standard benchmark corpus (the eleven Table 6 library workloads
/// plus `generated` Table 7 programs) as NDJSON `submit` lines — the
/// input of the `service-smoke` CI job and the throughput bench.
pub fn corpus_submit_lines(generated: usize, budget: CorpusBudget) -> Vec<String> {
    let (max_executions, max_steps) = budget.limits();
    let submit = |name: &str, source: &str, entry: &str, arity: usize| {
        format!(
            "{{\"type\":\"submit\",\"name\":{},\"entry\":{},\"arity\":{arity},\
             \"max_executions\":{max_executions},\"max_steps\":{max_steps},\
             \"program\":{}}}",
            escaped(name),
            escaped(entry),
            escaped(source),
        )
    };
    let mut lines = Vec::new();
    for w in corpus::library_workloads() {
        lines.push(submit(w.name, w.source, w.entry, w.arity));
    }
    for p in corpus::generate_dse_programs(generated, 0xbe7c) {
        lines.push(submit(&p.name, &p.source, &p.entry, p.arity));
    }
    lines
}

/// The same corpus as protocol-v2 `explore` lines, each running an
/// `iterations`-bounded pure-concolic loop — the input of the
/// `explore-smoke` CI job, whose response stream must be byte-identical
/// at any flip worker count.
pub fn corpus_explore_lines(
    generated: usize,
    budget: CorpusBudget,
    iterations: usize,
) -> Vec<String> {
    let (_, max_steps) = budget.limits();
    let explore = |name: &str, source: &str, entry: &str, arity: usize| {
        format!(
            "{{\"v\":2,\"type\":\"explore\",\"name\":{},\"entry\":{},\"arity\":{arity},\
             \"iterations\":{iterations},\"max_steps\":{max_steps},\
             \"program\":{}}}",
            escaped(name),
            escaped(entry),
            escaped(source),
        )
    };
    let mut lines = Vec::new();
    for w in corpus::library_workloads() {
        lines.push(explore(w.name, w.source, w.entry, w.arity));
    }
    for p in corpus::generate_dse_programs(generated, 0xbe7c) {
        lines.push(explore(&p.name, &p.source, &p.entry, p.arity));
    }
    lines
}

/// The serial reference of a submit stream: collects the submits of
/// `input`, runs them through a one-worker batch, and writes to `out`
/// the `result` and `done` lines a streamed session prints for the same
/// input — byte for byte, at any worker count.
///
/// Requests that need a served session (the v2 session verbs and
/// `explore`) are answered with a `no_session` error line; progress
/// queries are skipped; `shutdown` ends the input.
pub fn serial_reference(
    input: impl BufRead,
    config: &ServiceConfig,
    mut out: impl Write,
) -> io::Result<()> {
    let mut pending: Vec<(String, ProtoVersion, Result<expose_dse::Job, String>)> = Vec::new();
    let mut stream_version = ProtoVersion::V1;
    for line in input.lines() {
        let line = line?;
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        let (request, version) = match parse_request(line) {
            Ok(parsed) => parsed,
            Err(error) => {
                writeln!(out, "{}", proto::error_line(&error))?;
                continue;
            }
        };
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
            Request::Status | Request::Stats | Request::Metrics => {}
            Request::OpenSession(_)
            | Request::Push(_)
            | Request::Pop
            | Request::Solve { .. }
            | Request::CloseSession
            | Request::Explore(_) => {
                let error = RequestError::new(
                    ErrorCode::NoSession,
                    "streaming sessions need a served session, not --batch",
                    version,
                );
                writeln!(out, "{}", proto::error_line(&error))?;
            }
        }
    }

    let jobs: Vec<expose_dse::Job> = pending
        .iter()
        .filter_map(|(_, _, job)| job.as_ref().ok().cloned())
        .collect();
    let mut reports = BatchOptions::new().workers(1).run(jobs).into_iter();
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
        writeln!(out, "{}", result_line(&completion, version))?;
    }
    writeln!(out, "{}", proto::done_line(total, stream_version))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn corpus_lines_parse_as_submits() {
        let lines = corpus_submit_lines(3, CorpusBudget::Quick);
        assert_eq!(lines.len(), 11 + 3);
        for line in &lines {
            let (request, _) = parse_request(line).expect("parses");
            let Request::Submit(submit) = request else {
                panic!("submit line");
            };
            assert_eq!(submit.max_executions, Some(40));
            assert_eq!(submit.spec.max_steps, Some(50_000));
            // Programs must survive the JSON round trip intact.
            expose_dse::parser::parse_program(&submit.spec.program).expect("program parses");
        }
    }

    #[test]
    fn budgets_differ() {
        assert_eq!(CorpusBudget::Quick.limits(), (40, 50_000));
        assert_eq!(CorpusBudget::Full.limits(), (48, 100_000));
    }
}
