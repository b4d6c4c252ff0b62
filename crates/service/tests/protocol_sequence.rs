//! Seeded protocol sequences against the connection core: a mix of
//! valid and invalid requests of every verb, garbage and oversized
//! lines. Every request must get exactly one answer (an `explore` gets
//! its progress lines, then one `explore_result`), every error code must
//! be a stable [`ErrorCode`], and a served stream must end with `done`.

use expose_dse::EngineConfig;
use expose_service::json::{self, Value};
use expose_service::transport::LineEvent;
use expose_service::{Backend, Connection, ErrorCode, Flow, ServeOptions, ServiceConfig};

const MAX_LINE_BYTES: usize = 1024;

const PROGRAMS: [&str; 3] = [
    r#"function f(x) { if (/^[a-z]+$/.test(x)) { return 1; } return 0; }"#,
    r#"function f(x) { if (x === \"k\") { return 1; } return 0; }"#,
    r#"function f(x) { if ("#,
];

/// Splitmix64: a dependency-free seeded generator.
struct Rng(u64);

impl Rng {
    fn below(&mut self, n: u64) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        (z ^ (z >> 31)) % n
    }
}

/// One generated request and the answer shape it must get.
enum Step {
    /// A submit: answered by one `result` line from the job stream
    /// (plus an `accepted` line when acked).
    Submit { ack: bool, line: String },
    /// An explore: progress lines, then one `explore_result`.
    Explore(String),
    /// Any other request: exactly one line of type `answer`.
    Line { line: String, answer: &'static str },
    /// A line over the byte cap: one `bad_request` error.
    Oversized,
}

fn line(line: impl Into<String>, answer: &'static str) -> Step {
    Step::Line {
        line: line.into(),
        answer,
    }
}

/// The generator's model of the connection's streaming session, so
/// session verbs are mostly valid and every answer is predictable.
#[derive(Default)]
struct SessionModel {
    open: bool,
    depth: u64,
    max_depth: u64,
    events: u64,
}

impl SessionModel {
    fn push(cond_event: u64) -> String {
        format!(
            r#"{{"v":2,"type":"push","events":[{{"regex":"^a+$","flags":"","subject":["in",0]}}],"cond":["test",{cond_event}],"taken":true}}"#
        )
    }

    fn step(&mut self, rng: &mut Rng) -> Step {
        if !self.open {
            if rng.below(4) == 0 {
                let verb = ["pop", "close_session", "solve\",\"depth\":0"][rng.below(3) as usize];
                return line(format!(r#"{{"v":2,"type":"{verb}"}}"#), "error");
            }
            *self = SessionModel {
                open: true,
                max_depth: 1 + rng.below(3),
                ..SessionModel::default()
            };
            let open = format!(
                r#"{{"v":2,"type":"open_session","inputs_used":1,"max_depth":{}}}"#,
                self.max_depth
            );
            return line(open, "session_opened");
        }
        match rng.below(6) {
            // The cond references the event this push defines — or,
            // one time in four, an undefined one.
            0 | 1 if rng.below(4) == 0 => line(Self::push(self.events + 1), "error"),
            0 | 1 if self.depth >= self.max_depth => line(Self::push(self.events), "error"),
            0 | 1 => {
                self.depth += 1;
                self.events += 1;
                line(Self::push(self.events - 1), "pushed")
            }
            2 => {
                let depth = rng.below(self.depth + 1);
                let answer = if depth < self.depth {
                    "solved"
                } else {
                    "error"
                };
                line(
                    format!(r#"{{"v":2,"type":"solve","depth":{depth}}}"#),
                    answer,
                )
            }
            3 if self.depth == 0 => line(r#"{"v":2,"type":"pop"}"#, "error"),
            3 => {
                self.depth -= 1;
                line(r#"{"v":2,"type":"pop"}"#, "popped")
            }
            4 => line(r#"{"v":2,"type":"open_session"}"#, "error"),
            _ => {
                self.open = false;
                line(r#"{"v":2,"type":"close_session"}"#, "session_closed")
            }
        }
    }
}

fn sequence(seed: u64, len: usize) -> Vec<Step> {
    let mut rng = Rng(seed);
    let mut session = SessionModel::default();
    let mut steps = Vec::with_capacity(len);
    for _ in 0..len {
        let program = PROGRAMS[rng.below(PROGRAMS.len() as u64) as usize];
        let step = match rng.below(14) {
            0 | 1 => {
                let ack = rng.below(2) == 0;
                Step::Submit {
                    ack,
                    line: format!(
                        r#"{{"type":"submit","ack":{ack},"max_executions":6,"program":"{program}"}}"#
                    ),
                }
            }
            2 => Step::Explore(format!(
                r#"{{"v":2,"type":"explore","iterations":2,"program":"{program}"}}"#
            )),
            3 => line(r#"{"type":"status"}"#, "status"),
            4 => line(r#"{"v":2,"type":"stats"}"#, "stats"),
            5 => line(r#"{"type":"metrics"}"#, "metrics"),
            6..=11 => session.step(&mut rng),
            // Garbage: a v1 session verb, an unknown verb, a missing
            // field, or random printable bytes.
            12 => match rng.below(4) {
                0 => line(r#"{"type":"pop"}"#, "error"),
                1 => line(r#"{"type":"warp"}"#, "error"),
                2 => line(r#"{"type":"submit"}"#, "error"),
                _ => line(
                    (0..1 + rng.below(40))
                        .map(|_| (b'!' + rng.below(94) as u8) as char)
                        .collect::<String>(),
                    "error",
                ),
            },
            _ => Step::Oversized,
        };
        steps.push(step);
    }
    steps
}

fn config() -> ServiceConfig {
    ServiceConfig {
        workers: 2,
        max_line_bytes: MAX_LINE_BYTES,
        engine: EngineConfig {
            max_executions: 6,
            ..EngineConfig::default()
        },
        ..ServiceConfig::default()
    }
}

fn every_code() -> Vec<&'static str> {
    use ErrorCode::*;
    [
        MalformedJson,
        BadRequest,
        UnknownVerb,
        UnsupportedVersion,
        BadEvent,
        NoSession,
        SessionOpen,
        BadDepth,
        DepthLimit,
        Overloaded,
        Draining,
    ]
    .iter()
    .map(|code| code.as_str())
    .collect()
}

/// Parses a response line, checking any error code against the enum.
fn line_type(line: &str) -> String {
    let value = json::parse(line).unwrap_or_else(|e| panic!("invalid JSON {line:?}: {e}"));
    let kind = value
        .get("type")
        .and_then(Value::as_str)
        .unwrap_or_else(|| panic!("untyped line {line}"))
        .to_string();
    if kind == "error" {
        let code = value.get("code").and_then(Value::as_str).expect("code");
        assert!(every_code().contains(&code), "unknown code in {line}");
    }
    kind
}

#[test]
fn every_request_gets_exactly_one_answer() {
    let config = config();
    let mut seen = std::collections::BTreeSet::new();
    for seed in 0..3 {
        let backend = Backend::start(&config, config.cache_set());
        let mut connection = Connection::new(&backend, None);
        let mut submits = 0;
        for step in sequence(seed, 40) {
            let event = match &step {
                Step::Submit { line, .. } | Step::Explore(line) | Step::Line { line, .. } => {
                    LineEvent::Line(line.clone())
                }
                Step::Oversized => LineEvent::Oversized { dropped: 4096 },
            };
            let mut lines = Vec::new();
            let flow = connection.handle(event, &mut |line| lines.push(line.to_string()));
            assert_eq!(flow, Flow::Continue);
            let types: Vec<String> = lines.iter().map(|l| line_type(l)).collect();
            seen.extend(types.iter().cloned());
            match step {
                Step::Submit { ack, .. } => {
                    submits += 1;
                    assert_eq!(types.len(), usize::from(ack), "{lines:?}");
                    assert!(types.iter().all(|t| t == "accepted"), "{lines:?}");
                }
                Step::Explore(_) => {
                    let (last, progress) = types.split_last().expect("an explore answer");
                    assert_eq!(last, "explore_result", "{lines:?}");
                    assert!(progress.iter().all(|t| t == "explore_progress"));
                }
                Step::Line { answer, line } => {
                    assert_eq!(types, [answer], "{line} -> {lines:?}");
                }
                Step::Oversized => {
                    assert_eq!(types, ["error"]);
                    assert!(lines[0].contains(r#""code":"bad_request""#), "{lines:?}");
                }
            }
        }
        assert_eq!(
            connection.handle(LineEvent::Eof, &mut |l| panic!("{l}")),
            Flow::Close
        );
        backend.close();
        let mut results = 0;
        while let Some(line) = backend.next_result_line() {
            assert_eq!(line_type(&line), "result");
            assert!(line.contains(&format!(r#""job":{results},"#)), "{line}");
            results += 1;
        }
        assert_eq!(results, submits, "seed {seed}");
    }
    // The seeds exercise every answer shape.
    let every = [
        "accepted",
        "error",
        "explore_progress",
        "explore_result",
        "metrics",
        "popped",
        "pushed",
        "session_closed",
        "session_opened",
        "solved",
        "stats",
        "status",
    ];
    assert_eq!(seen.into_iter().collect::<Vec<_>>(), every);
}

#[test]
fn served_sequences_end_with_done() {
    let config = config();
    for seed in 0..3 {
        let steps = sequence(seed, 40);
        let oversized = "x".repeat(MAX_LINE_BYTES + 1);
        let mut input = String::new();
        let mut submits = 0;
        for step in &steps {
            input.push_str(match step {
                Step::Submit { line, .. } => {
                    submits += 1;
                    line
                }
                Step::Explore(line) | Step::Line { line, .. } => line,
                Step::Oversized => &oversized,
            });
            input.push('\n');
        }
        let mut out = Vec::new();
        let summary = ServeOptions::new()
            .config(config.clone())
            .serve(input.as_bytes(), &mut out)
            .expect("serve");
        let text = String::from_utf8(out).expect("utf8");
        let lines: Vec<&str> = text.lines().collect();
        for line in &lines {
            line_type(line);
        }
        assert_eq!(summary.jobs, submits);
        let done = lines.last().expect("a done line");
        assert_eq!(line_type(done), "done", "{text}");
        assert!(done.ends_with(&format!(r#""jobs":{submits}}}"#)), "{done}");
        let results = lines.iter().filter(|l| line_type(l) == "result").count();
        assert_eq!(results as u64, submits);
    }
}
