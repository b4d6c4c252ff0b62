//! A run shares the program's functions and regex literals and keeps its
//! compiled matchers in a per-run memo. Two properties follow:
//!
//! 1. **The shared program retains no per-run state.** While a run is
//!    live its memo holds the literals it has compiled; once `run_dse`
//!    or `explore` returns, every literal's and every function's
//!    `Arc::strong_count` is 1 again. A program pool held by a
//!    long-lived scheduler therefore never keeps compiled matchers
//!    alive.
//! 2. **Memoized execution is exact.** Executing a sequence of inputs
//!    with one memo gives the same traces as a fresh [`execute`] per
//!    input: path clauses, regex events (source, flags, outcome,
//!    captures), coverage and the matcher fast-path/fallback counts.
//!    The inputs come from a small generational search, so they reach
//!    both outcomes of the programs' regex branches.

use std::collections::HashSet;
use std::sync::Arc;

use expose_dse::ast::{Expr, Function, Program, Stmt, Target};
use expose_dse::parser::parse_program;
use expose_dse::{
    build_solver, execute, execute_with, explore, run_dse, run_dse_observed, DseCaches,
    EngineConfig, ExploreConfig, Harness, InterpConfig, MatcherMemo, TraceFlipSession,
};
use regex_syntax_es6::Regex;

/// Every regex literal and function declaration of a program.
#[derive(Default)]
struct Shared<'p> {
    literals: Vec<&'p Arc<Regex>>,
    functions: Vec<&'p Arc<Function>>,
}

impl<'p> Shared<'p> {
    fn of(program: &'p Program) -> Shared<'p> {
        let mut shared = Shared::default();
        shared.stmts(&program.body);
        shared
    }

    fn stmts(&mut self, body: &'p [Stmt]) {
        for stmt in body {
            match stmt {
                Stmt::Let { value, .. } | Stmt::ExprStmt { expr: value, .. } => self.expr(value),
                Stmt::Assign { target, value, .. } => {
                    if let Target::Index(base, index) = target {
                        self.expr(base);
                        self.expr(index);
                    }
                    self.expr(value);
                }
                Stmt::If {
                    cond,
                    then_body,
                    else_body,
                    ..
                } => {
                    self.expr(cond);
                    self.stmts(then_body);
                    self.stmts(else_body);
                }
                Stmt::While { cond, body, .. } => {
                    self.expr(cond);
                    self.stmts(body);
                }
                Stmt::FunctionDecl { func, .. } => {
                    self.functions.push(func);
                    self.stmts(&func.body);
                }
                Stmt::Return { value, .. } => value.iter().for_each(|e| self.expr(e)),
                Stmt::Assert { cond, .. } => self.expr(cond),
            }
        }
    }

    fn expr(&mut self, expr: &'p Expr) {
        match expr {
            Expr::Regex(regex) => self.literals.push(regex),
            Expr::Array(items) | Expr::Call(_, items) => items.iter().for_each(|e| self.expr(e)),
            Expr::Index(a, b) | Expr::Binary(_, a, b) => {
                self.expr(a);
                self.expr(b);
            }
            Expr::Member(inner, _) | Expr::Unary(_, inner) => self.expr(inner),
            Expr::MethodCall(recv, _, args) => {
                self.expr(recv);
                args.iter().for_each(|e| self.expr(e));
            }
            Expr::Undefined
            | Expr::Null
            | Expr::Bool(_)
            | Expr::Num(_)
            | Expr::Str(_)
            | Expr::Var(_) => {}
        }
    }

    /// The highest strong count over every literal and function.
    fn max_strong_count(&self) -> usize {
        let literals = self.literals.iter().map(|r| Arc::strong_count(r));
        let functions = self.functions.iter().map(|f| Arc::strong_count(f));
        literals.chain(functions).max().unwrap_or(0)
    }
}

/// Listing 1 of the paper, plus calls that reach every regex method the
/// interpreter memoizes (`g` and `y` literals included). The mini
/// language's `test` matches as if `g` and `y` were clear, so the
/// concrete sticky call takes its branch.
const PROGRAM: &str = r#"
    function parse(xml) {
        let timeout = "500";
        let tag = /<(\w+)>([0-9]*)<\/\1>/;
        let parts = tag.exec(xml);
        if (parts) {
            if (parts[1] === "timeout") {
                timeout = parts[2];
            }
        }
        let all = xml.match(/[a-z]+/g);
        let at = xml.search(/\d/y);
        let pieces = xml.split(/,/);
        let clean = xml.replace(/\s+/g, " ");
        if (/(a+)b/y.test("xab")) { timeout = "7"; }
        if (/(a+)b/y.test(xml)) { return clean; }
        assert(/^[0-9]+$/.test(timeout) === true);
        return timeout;
    }
"#;

#[test]
fn runs_leave_every_literal_and_function_unshared() {
    let program = parse_program(PROGRAM).expect("the program parses");
    let harness = Harness::strings("parse", 1);
    let shared = Shared::of(&program);
    assert_eq!(shared.literals.len(), 8);
    assert_eq!(shared.functions.len(), 1);
    assert_eq!(shared.max_strong_count(), 1);

    let config = EngineConfig {
        max_executions: 12,
        ..EngineConfig::default()
    };
    let mut peak = 0;
    let caches = DseCaches::from_config(&config);
    let report = run_dse_observed(&program, &harness, &config, &caches, &mut |_, _| {
        peak = peak.max(shared.max_strong_count());
    });
    assert!(report.executions > 1);
    assert!(peak > 1, "a live run holds its compiled literals");
    assert_eq!(
        shared.max_strong_count(),
        1,
        "run_dse_observed kept a reference"
    );

    run_dse(&program, &harness, &config);
    assert_eq!(shared.max_strong_count(), 1, "run_dse kept a reference");

    let explored = explore(
        &program,
        &harness,
        &ExploreConfig {
            engine: config,
            max_iterations: 12,
            ..ExploreConfig::default()
        },
    );
    assert!(explored.iterations > 1);
    assert_eq!(shared.max_strong_count(), 1, "explore kept a reference");
}

/// The deterministic content of a trace, with each event's regex
/// reduced to its source and flags.
#[derive(Debug, PartialEq)]
struct Projection {
    path: Vec<(String, bool, u32)>,
    events: Vec<(String, String, bool, Vec<Option<String>>)>,
    coverage: Vec<u32>,
    assertion_failures: Vec<u32>,
    steps: u64,
    inputs_used: usize,
    matcher_fast_path: u64,
    matcher_fallback: u64,
}

fn project(trace: &expose_dse::Trace) -> Projection {
    let mut coverage: Vec<u32> = trace.coverage.iter().copied().collect();
    coverage.sort_unstable();
    Projection {
        path: trace
            .path
            .iter()
            .map(|c| (format!("{:?}", c.cond), c.taken, c.branch_id))
            .collect(),
        events: trace
            .events
            .iter()
            .map(|e| {
                (
                    e.regex.source.clone(),
                    e.regex.flags.to_string(),
                    e.matched,
                    e.concrete_captures.clone(),
                )
            })
            .collect(),
        coverage,
        assertion_failures: trace.assertion_failures.clone(),
        steps: trace.steps,
        inputs_used: trace.inputs_used,
        matcher_fast_path: trace.matcher_fast_path,
        matcher_fallback: trace.matcher_fallback,
    }
}

/// What a comparison covered.
#[derive(Default)]
struct Tally {
    regex_calls: u64,
    matched_events: usize,
    failed_events: usize,
}

/// Executes up to `executions` inputs of a small generational search
/// over `program`, once through one shared memo and once fresh per
/// input, and asserts the traces agree.
fn compare_memoized(
    name: &str,
    program: &Program,
    harness: &Harness,
    executions: usize,
    caches: &DseCaches,
    tally: &mut Tally,
) {
    let config = EngineConfig {
        max_steps: 20_000,
        ..EngineConfig::default()
    };
    let interp_config = InterpConfig {
        support: config.support,
        max_steps: config.max_steps,
    };
    let solver = build_solver(&config, caches);
    let mut matchers = MatcherMemo::default();
    let mut queue = vec![vec![String::new(); harness.input_count()]];
    let mut seen: HashSet<Vec<String>> = queue.iter().cloned().collect();
    for _ in 0..executions {
        if queue.is_empty() {
            break;
        }
        let inputs = queue.remove(0);
        let memoized = execute_with(program, harness, &inputs, &interp_config, &mut matchers);
        let fresh = execute(program, harness, &inputs, &interp_config);
        assert_eq!(
            project(&memoized),
            project(&fresh),
            "{name}: memoized and fresh executions differ on {inputs:?}"
        );
        tally.regex_calls += fresh.matcher_fast_path + fresh.matcher_fallback;
        let matched = fresh.events.iter().filter(|e| e.matched).count();
        tally.matched_events += matched;
        tally.failed_events += fresh.events.len() - matched;

        let flips = fresh.path.len().min(6);
        let session = TraceFlipSession::build(
            &fresh,
            flips,
            config.support,
            &solver,
            config.refinement_limit,
            &config.build,
            caches,
        );
        for k in 0..flips {
            if let Some(mut next) = session.solve(k).inputs {
                next.resize(harness.input_count().max(next.len()), String::new());
                if seen.insert(next.clone()) {
                    queue.push(next);
                }
            }
        }
    }
}

#[test]
fn memoized_runs_equal_fresh_executions() {
    let caches = DseCaches::from_config(&EngineConfig::default());
    let mut programs = vec![(
        "memoized-methods".to_string(),
        parse_program(PROGRAM).expect("the program parses"),
        Harness::strings("parse", 1),
    )];
    programs.extend(corpus::library_workloads().into_iter().map(|w| {
        let program = parse_program(w.source).expect("library workload parses");
        (
            w.name.to_string(),
            program,
            Harness::strings(w.entry, w.arity),
        )
    }));
    programs.extend(
        corpus::generate_dse_programs(200, 0x5eed)
            .into_iter()
            .map(|p| {
                let program = parse_program(&p.source).expect("generated program parses");
                let harness = Harness::strings(&p.entry, p.arity);
                (p.name, program, harness)
            }),
    );
    let mut tally = Tally::default();
    for (name, program, harness) in &programs {
        compare_memoized(name, program, harness, 8, &caches, &mut tally);
    }
    assert!(
        tally.regex_calls > 1_000,
        "only {} regex calls compared",
        tally.regex_calls
    );
    assert!(tally.matched_events > 100 && tally.failed_events > 100);
}
