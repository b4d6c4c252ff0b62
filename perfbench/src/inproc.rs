//! In-process drivers: a closed loop over the `Scheduler`, and the
//! engine-observed loop of the traced run that calls
//! `run_dse_observed` directly to split job time into interpretation
//! and flip solving.

use std::collections::VecDeque;
use std::panic::AssertUnwindSafe;
use std::sync::Mutex;
use std::time::Instant;

use expose_dse::ast::Program;
use expose_dse::sched::Scheduler;
use expose_dse::{run_dse_observed, CacheSet, EngineConfig, Harness, Job, Report};

use crate::check::{panic_message, parallel_map, Digest};
use crate::gen;
use crate::trace::Tracer;
use crate::{inflight, nproc, LoadGauge};

/// A parsed job input.
#[derive(Debug, Clone)]
pub struct Parsed {
    /// Job label.
    pub name: String,
    /// Parsed program.
    pub program: Program,
    /// Entry harness.
    pub harness: Harness,
}

/// Parses generated programs (the generators only emit programs that
/// parse).
pub fn parse_all(programs: &[gen::Program]) -> Vec<Parsed> {
    programs
        .iter()
        .map(|p| Parsed {
            name: p.name.clone(),
            program: expose_dse::parser::parse_program(&p.source)
                .unwrap_or_else(|e| panic!("generated program {} must parse: {e}", p.name)),
            harness: Harness::strings(&p.entry, p.arity),
        })
        .collect()
}

/// One finished job.
#[derive(Debug, Clone)]
pub struct JobSample {
    /// Index of the program in the run's pool.
    pub index: usize,
    /// Completion time, seconds since the loop started.
    pub done_s: f64,
    /// Submit-to-completion latency, seconds.
    pub latency_s: f64,
    /// The deterministic outcome, or the failure.
    pub outcome: Result<Digest, String>,
    /// Statement coverage fraction.
    pub coverage: f64,
    /// Flip queries attempted.
    pub flips: u64,
    /// Flip queries answered SAT.
    pub sat: u64,
}

impl JobSample {
    fn of(
        index: usize,
        done_s: f64,
        latency_s: f64,
        outcome: Result<&Report, String>,
    ) -> JobSample {
        match outcome {
            Ok(report) => JobSample {
                index,
                done_s,
                latency_s,
                outcome: Ok(Digest::of(report)),
                coverage: report.coverage_fraction(),
                flips: report.queries.len() as u64,
                sat: report.queries.iter().filter(|q| q.sat).count() as u64,
            },
            Err(error) => JobSample {
                index,
                done_s,
                latency_s,
                outcome: Err(error),
                coverage: 0.0,
                flips: 0,
                sat: 0,
            },
        }
    }
}

/// Layer counters summed over the reports of a loop.
#[derive(Debug, Clone, Copy, Default)]
pub struct Counters {
    /// Jobs absorbed.
    pub jobs: u64,
    /// Concrete executions.
    pub executions: u64,
    /// Regex executions on the Pike-VM fast path.
    pub matcher_fast_path: u64,
    /// Regex executions on the backtracker.
    pub matcher_fallback: u64,
    /// Flip queries.
    pub flips: u64,
    /// Summed flip query durations, seconds.
    pub solve_s: f64,
    /// Prefix frames reused by incremental sessions.
    pub prefix_reuse_hits: u64,
    /// Model cache hits and misses.
    pub model_hits: u64,
    /// Model cache misses.
    pub model_misses: u64,
    /// CEGAR refinements.
    pub refinements: u64,
    /// Whole CEGAR runs replayed from the verdict cache.
    pub replays: u64,
    /// Queries that hit the refinement limit.
    pub limit_hits: u64,
    /// Solver search nodes.
    pub nodes: u64,
    /// Conjunctions refuted by the length abstraction.
    pub length_prunes: u64,
    /// Solver calls answered by the query cache.
    pub query_cache_hits: u64,
    /// DFA states built before minimization.
    pub states_built: u64,
    /// DFA states after minimization.
    pub states_after_minimize: u64,
    /// DFA cache lookups served from resident entries.
    pub dfa_cache_hits: u64,
}

impl Counters {
    /// Adds one report.
    pub fn absorb(&mut self, report: &Report) {
        self.jobs += 1;
        self.executions += report.executions as u64;
        self.matcher_fast_path += report.matcher_fast_path;
        self.matcher_fallback += report.matcher_fallback;
        self.flips += report.queries.len() as u64;
        self.solve_s += report.solver_time().as_secs_f64();
        self.prefix_reuse_hits += report.prefix_reuse_hits();
        self.model_hits += report.model_cache_hits;
        self.model_misses += report.model_cache_misses;
        self.refinements += report
            .queries
            .iter()
            .map(|q| q.refinements as u64)
            .sum::<u64>();
        self.replays += report.verdict_replays();
        self.limit_hits += report.queries.iter().filter(|q| q.limit_hit).count() as u64;
        self.nodes += report.solver_nodes();
        self.length_prunes += report.length_prunes();
        self.query_cache_hits += report.query_cache_hits;
        self.states_built += report.dfa_states_built();
        self.states_after_minimize += report.states_after_minimize();
        self.dfa_cache_hits += report.dfa_cache_hits();
    }
}

/// The result of one timed loop.
#[derive(Debug, Default)]
pub struct Timed {
    /// Every finished job.
    pub samples: Vec<JobSample>,
    /// Seconds from the first submit to the deadline (or to the last
    /// completion when the inputs ran out first).
    pub window_s: f64,
    /// Whether the inputs ran out before the deadline.
    pub exhausted: bool,
}

/// Closed loop over `scheduler`: keeps [`inflight`] jobs in flight,
/// drawing programs from `order` until `deadline` (or until `order`
/// ends), then drains. Latency runs from submit to the in-order
/// completion the scheduler hands back. The calling thread is the one
/// load-generating thread, counted in `gauge`. With a tracer, each job
/// gets a `dse.job` span.
pub fn drive(
    scheduler: &Scheduler,
    parsed: &[Parsed],
    config: &EngineConfig,
    order: &mut dyn Iterator<Item = usize>,
    deadline: Option<Instant>,
    gauge: &LoadGauge,
    mut tracer: Option<&mut Tracer>,
) -> Timed {
    let _load = gauge.enter();
    let window = inflight();
    let start = Instant::now();
    let mut pending: VecDeque<(usize, Instant)> = VecDeque::with_capacity(window);
    let mut timed = Timed::default();
    let mut last_done = start;
    loop {
        while !timed.exhausted
            && pending.len() < window
            && deadline.is_none_or(|d| Instant::now() < d)
        {
            let Some(index) = order.next() else {
                timed.exhausted = true;
                break;
            };
            let p = &parsed[index];
            let submitted = Instant::now();
            scheduler.submit(Job {
                name: p.name.clone(),
                program: p.program.clone(),
                harness: p.harness.clone(),
                config: config.clone(),
            });
            pending.push_back((index, submitted));
        }
        let Some((index, submitted)) = pending.pop_front() else {
            break;
        };
        let completion = scheduler
            .next_ordered()
            .expect("the scheduler holds a pending job");
        let done = Instant::now();
        last_done = done;
        if let Some(tracer) = tracer.as_deref_mut() {
            tracer.span("dse.job", None, completion.id, submitted, done);
            tracer.finish_job();
        }
        timed.samples.push(JobSample::of(
            index,
            (done - start).as_secs_f64(),
            (done - submitted).as_secs_f64(),
            completion.outcome.as_ref().map_err(Clone::clone),
        ));
    }
    let end = match deadline {
        Some(d) if !timed.exhausted => d,
        _ => last_done,
    };
    timed.window_s = end.saturating_duration_since(start).as_secs_f64();
    timed
}

/// What the engine-observed loop saw.
#[derive(Debug, Default)]
pub struct Observed {
    /// Every finished job, and the loop's wall time.
    pub timed: Timed,
    /// Layer counters summed over the jobs' reports.
    pub counters: Counters,
    /// Traces executed (observer callbacks).
    pub traces: u64,
}

/// The engine-observed loop of the traced run: `nproc` threads, each
/// counted in `gauge`, take the next program from `order` and run it
/// through `run_dse_observed` with the shared `caches`, until
/// `deadline`.
///
/// Spans per job: `dse.run` for the whole call; `dse.trace` for each
/// interval between observer callbacks (the first one runs from the
/// call to the first callback, the last one to the return); and a
/// `dse.solve` child per flip query, laid out back to back from the
/// callback that precedes it with its recorded duration. A `dse.trace`
/// span's self time is therefore interpretation and bookkeeping.
pub fn observe(
    parsed: &[Parsed],
    config: &EngineConfig,
    caches: &CacheSet,
    order: &mut (dyn Iterator<Item = usize> + Send),
    deadline: Instant,
    gauge: &LoadGauge,
    tracer: &mut Tracer,
) -> Observed {
    let threads = nproc();
    let order = Mutex::new(order);
    let counters = Mutex::new(Counters::default());
    let start = Instant::now();
    let base = &*tracer;
    let lanes = parallel_map(threads, threads, |lane| {
        let _load = gauge.enter();
        let mut local = base.lane(lane as u64 + 1, threads);
        let mut samples = Vec::new();
        let mut traces = 0u64;
        while Instant::now() < deadline {
            let next = order.lock().expect("order poisoned").next();
            let Some(index) = next else { break };
            let p = &parsed[index];
            let job = index as u64;
            let mut marks: Vec<(Instant, usize)> = Vec::new();
            let began = Instant::now();
            let run = std::panic::catch_unwind(AssertUnwindSafe(|| {
                run_dse_observed(&p.program, &p.harness, config, caches, &mut |_, flips| {
                    marks.push((Instant::now(), flips));
                })
            }));
            let ended = Instant::now();
            let report = match run {
                Ok(report) => report,
                Err(payload) => {
                    samples.push(JobSample::of(
                        index,
                        (ended - start).as_secs_f64(),
                        (ended - began).as_secs_f64(),
                        Err(format!("job panicked: {}", panic_message(payload.as_ref()))),
                    ));
                    continue;
                }
            };
            let run = local.span("dse.run", None, job, began, ended);
            let first_mark = marks.first().map_or(ended, |m| m.0);
            local.span("dse.trace", Some(run), job, began, first_mark);
            let mut query = 0usize;
            for (k, &(at, flips)) in marks.iter().enumerate() {
                let next_mark = marks.get(k + 1).map_or(ended, |m| m.0);
                let parent = local.span("dse.trace", Some(run), job, at, next_mark);
                let mut cursor = at;
                for record in &report.queries[query..query + flips] {
                    let end = cursor + record.duration;
                    local.span("dse.solve", Some(parent), job, cursor, end);
                    cursor = end;
                }
                query += flips;
            }
            local.finish_job();
            traces += marks.len() as u64;
            counters.lock().expect("counters poisoned").absorb(&report);
            samples.push(JobSample::of(
                index,
                (ended - start).as_secs_f64(),
                (ended - began).as_secs_f64(),
                Ok(&report),
            ));
        }
        (local, samples, traces)
    });
    let mut observed = Observed::default();
    observed.timed.window_s = start.elapsed().as_secs_f64();
    for lane in lanes {
        let (local, samples, traces) =
            lane.unwrap_or_else(|message| panic!("observed engine loop panicked: {message}"));
        tracer.merge(local);
        observed.timed.samples.extend(samples);
        observed.traces += traces;
    }
    observed.counters = counters.into_inner().expect("counters poisoned");
    observed
}
