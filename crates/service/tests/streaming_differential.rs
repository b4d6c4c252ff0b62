//! Streaming-protocol byte-identity: a trace replayed clause by clause
//! through wire `push`/`solve` requests must produce exactly the
//! verdict trail of the whole-program run — at any worker count — and
//! every misuse of the session verbs must come back as a structured
//! error, never a panic or a torn stream.

use expose_dse::Job;
use expose_service::json::{self, Value};
use expose_service::proto::verdict_digest;
use expose_service::session::job_from_submit;
use expose_service::stream::{fold_responses, record_stream};
use expose_service::{
    corpus_submit_lines, parse_request, CorpusBudget, Request, ServeOptions, ServiceConfig,
    ServiceSummary,
};

/// The quick benchmark corpus — the 11 library workloads plus 10
/// generated programs — as `(submit line, parsed job)` pairs.
fn corpus_jobs() -> Vec<(String, Job)> {
    let engine = ServiceConfig::default().engine;
    corpus_submit_lines(10, CorpusBudget::Quick)
        .into_iter()
        .map(|line| {
            let (request, _) = parse_request(&line).expect("corpus line parses");
            let Request::Submit(submit) = request else {
                panic!("corpus line is a submit");
            };
            let name = submit.name.clone().expect("corpus lines are named");
            let job = job_from_submit(&submit, &name, &engine).expect("corpus job parses");
            (line, job)
        })
        .collect()
}

fn serve_text(input: &str, config: &ServiceConfig) -> (String, ServiceSummary) {
    let mut out: Vec<u8> = Vec::new();
    let summary = ServeOptions::new()
        .config(config.clone())
        .serve(input.as_bytes(), &mut out)
        .expect("serve");
    (String::from_utf8(out).expect("utf8"), summary)
}

/// The `verdicts` digest of the first `result` line in a served stream.
fn result_digest(output: &str) -> String {
    output
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
        .expect("stream has a result line with a verdicts digest")
}

#[test]
fn streamed_digest_matches_whole_program_submit_across_workers() {
    let corpus = corpus_jobs();
    assert_eq!(corpus.len(), 21, "11 library workloads + 10 generated");
    let mut saw_multi_flip = false;
    let mut prefix_reuse_hits = 0;
    for (submit, job) in &corpus {
        let recording = record_stream(job);
        let reference = verdict_digest(&recording.report);
        saw_multi_flip |= recording.max_session_flips >= 2;

        // One connection interleaves the whole-program submit (routed
        // through the scheduler) with the streamed sessions (solved on
        // the reader thread): both must land on the same digest.
        let mut input = format!("{submit}\n");
        for line in &recording.script {
            input.push_str(line);
            input.push('\n');
        }

        let mut outputs = Vec::new();
        for workers in [1, 2, 8] {
            let config = ServiceConfig {
                workers,
                ..ServiceConfig::default()
            };
            let (output, summary) = serve_text(&input, &config);
            let folded = fold_responses(output.lines()).expect("responses parse");
            assert_eq!(summary.request_errors, 0, "{}: {output}", job.name);
            assert_eq!(folded.errors, 0, "{}: {output}", job.name);
            assert_eq!(
                folded.digest, reference,
                "{} workers={workers}: streamed digest diverged",
                job.name
            );
            assert_eq!(
                result_digest(&output),
                format!("{reference:016x}"),
                "{} workers={workers}: submit digest diverged",
                job.name
            );
            if workers == 1 {
                prefix_reuse_hits += folded.prefix_reuse_hits;
            }
            outputs.push(output);
        }
        // The result line lands asynchronously relative to the
        // synchronous session responses, so its interleaving position
        // is scheduling-dependent — but each substream (batch results,
        // session responses) must be byte-identical on its own.
        let split = |output: &str| -> (Vec<String>, Vec<String>) {
            output
                .lines()
                .map(str::to_string)
                .partition(|l| l.contains("\"type\":\"result\"") || l.contains("\"type\":\"done\""))
        };
        for output in &outputs[1..] {
            assert_eq!(
                split(&outputs[0]),
                split(output),
                "{}: stream bytes changed with the worker count",
                job.name
            );
        }
    }
    // A single workload can legitimately reuse no prefix (every deep
    // flip statically infeasible), but the corpus as a whole must.
    assert!(
        saw_multi_flip,
        "corpus must include at least one multi-flip trace"
    );
    assert!(
        prefix_reuse_hits > 0,
        "multi-flip workloads streamed without any prefix reuse"
    );
}

#[test]
fn pop_and_repush_resolves_byte_identically() {
    // Two independent regex clauses; solve depth 1, retract it, re-push
    // the same clause (its event is already in the append-only table),
    // and solve again: the two depth-1 solved lines must be identical.
    let input = concat!(
        r#"{"v":2,"type":"open_session","name":"rp","inputs_used":2}"#,
        "\n",
        r#"{"v":2,"type":"push","events":[{"regex":"^a+$","flags":"","subject":["in",0]}],"cond":["test",0],"taken":true}"#,
        "\n",
        r#"{"v":2,"type":"solve","depth":0}"#,
        "\n",
        r#"{"v":2,"type":"push","events":[{"regex":"^b+$","flags":"","subject":["in",1]}],"cond":["test",1],"taken":false}"#,
        "\n",
        r#"{"v":2,"type":"solve","depth":1}"#,
        "\n",
        r#"{"v":2,"type":"pop"}"#,
        "\n",
        r#"{"v":2,"type":"push","events":[],"cond":["test",1],"taken":false}"#,
        "\n",
        r#"{"v":2,"type":"solve","depth":1}"#,
        "\n",
        r#"{"v":2,"type":"close_session"}"#,
        "\n",
    );
    let (output, _) = serve_text(input, &ServiceConfig::default());
    let lines: Vec<&str> = output.lines().collect();
    let solved: Vec<&&str> = lines
        .iter()
        .filter(|l| l.contains("\"type\":\"solved\""))
        .collect();
    assert_eq!(solved.len(), 3, "{output}");
    assert_eq!(
        solved[1], solved[2],
        "re-pushed clause must solve byte-identically"
    );
    assert!(
        lines
            .iter()
            .any(|l| l.starts_with(r#"{"v":2,"type":"popped","session":0,"depth":1}"#)),
        "{output}"
    );
    assert!(
        !output.contains("\"type\":\"error\""),
        "clean script must produce no errors: {output}"
    );
}

#[test]
fn session_misuse_is_structured_never_fatal() {
    let config = ServiceConfig {
        max_session_depth: 2,
        ..ServiceConfig::default()
    };
    let push = r#"{"v":2,"type":"push","events":[],"cond":["bool",true],"taken":true}"#;
    let input = [
        // Session verbs with no session open.
        r#"{"v":2,"type":"pop"}"#,
        r#"{"v":2,"type":"solve","depth":0}"#,
        r#"{"v":2,"type":"close_session"}"#,
        // Session verb without v2.
        r#"{"type":"pop"}"#,
        // Open, then a second interleaved open on the same connection.
        r#"{"v":2,"type":"open_session","name":"m"}"#,
        r#"{"v":2,"type":"open_session","name":"n"}"#,
        // Bad depths and bad event references.
        r#"{"v":2,"type":"pop"}"#,
        r#"{"v":2,"type":"solve","depth":0}"#,
        r#"{"v":2,"type":"push","events":[],"cond":["test",9],"taken":true}"#,
        r#"{"v":2,"type":"push","events":[{"regex":"a","flags":"","subject":["cap",5,0]}],"cond":["bool",true],"taken":true}"#,
        // Fill to the depth limit, then one more.
        push,
        push,
        push,
        // Close, then use the closed session.
        r#"{"v":2,"type":"close_session"}"#,
        r#"{"v":2,"type":"solve","depth":0}"#,
    ]
    .join("\n");
    let (output, _) = serve_text(&input, &config);
    let codes: Vec<String> = output
        .lines()
        .filter_map(|line| {
            let value = json::parse(line).ok()?;
            if value.get("type").and_then(Value::as_str) != Some("error") {
                return None;
            }
            value
                .get("code")
                .and_then(Value::as_str)
                .map(str::to_string)
        })
        .collect();
    assert_eq!(
        codes,
        vec![
            "no_session",
            "no_session",
            "no_session",
            "unsupported_version",
            "session_open",
            "bad_depth",
            "bad_depth",
            "bad_event",
            "bad_event",
            "depth_limit",
            "no_session",
        ],
        "{output}"
    );
    // Every line is versioned, valid JSON, and the stream still closes.
    for line in output.lines() {
        json::parse(line).unwrap_or_else(|e| panic!("invalid line {line:?}: {e}"));
        assert!(line.starts_with("{\"v\":"), "{line}");
    }
    assert!(output.contains("\"type\":\"done\""), "{output}");
}

#[test]
fn stats_report_session_depth_and_prefix_reuse() {
    let input = concat!(
        r#"{"v":2,"type":"open_session","name":"st","inputs_used":1}"#,
        "\n",
        r#"{"v":2,"type":"push","events":[{"regex":"^a+$","flags":"","subject":["in",0]}],"cond":["test",0],"taken":true}"#,
        "\n",
        r#"{"v":2,"type":"push","events":[{"regex":"^[0-9]+$","flags":"","subject":["in",0]}],"cond":["test",1],"taken":false}"#,
        "\n",
        r#"{"v":2,"type":"solve","depth":0}"#,
        "\n",
        r#"{"v":2,"type":"solve","depth":1}"#,
        "\n",
        r#"{"v":2,"type":"stats"}"#,
        "\n",
        r#"{"v":2,"type":"close_session"}"#,
        "\n",
        r#"{"v":2,"type":"stats"}"#,
        "\n",
    );
    let (output, _) = serve_text(input, &ServiceConfig::default());
    let stats: Vec<Value> = output
        .lines()
        .filter(|l| l.contains("\"type\":\"stats\""))
        .map(|l| json::parse(l).expect("stats parses"))
        .collect();
    assert_eq!(stats.len(), 2, "{output}");
    let session = stats[0].get("session").expect("open session in stats");
    assert_eq!(session.get("id").and_then(Value::as_u64), Some(0));
    assert_eq!(session.get("depth").and_then(Value::as_u64), Some(2));
    let solves = session
        .get("solves")
        .and_then(Value::as_u64)
        .expect("solves");
    assert!(solves >= 2, "{output}");
    let reuse = session
        .get("prefix_reuse_hits")
        .and_then(Value::as_u64)
        .expect("prefix_reuse_hits");
    assert!(reuse >= 1, "depth-1 solve must reuse a frame: {output}");
    // After close_session the stats line carries no session object.
    assert!(stats[1].get("session").is_none(), "{output}");
}
