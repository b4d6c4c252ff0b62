//! One benchmark run: generate the inputs, set the system up (several
//! times; `setup_s` is the median), run the timed or traced loop, check
//! every output against the reference, and fill in the metrics.

use std::collections::{BTreeSet, HashMap};
use std::time::{Duration, Instant};

use expose_dse::sched::{Scheduler, SchedulerConfig};
use expose_dse::CacheSet;

use crate::check::{reference_digests, Digest, Tally};
use crate::gen::{self, Cycle, Program};
use crate::inproc::{drive, observe, parse_all, Counters, JobSample, Parsed, Timed};
use crate::metrics::Outcome;
use crate::replay::{replay, Replay};
use crate::stats::{median, peak_rss_mb, quantile, ratio};
use crate::tcp::{self, Client, Server, ServerSide, Soak};
use crate::trace::Tracer;
use crate::{inflight, job_config, nproc, reference_config, LoadGauge, RunOptions, Workload};

/// Spans kept for the output file (totals always cover every span).
const KEEP_SPANS: usize = 200_000;

/// Runs one workload. `load_threads` is the most load-generating
/// threads that ran at once, as counted while the run went.
pub fn run(opts: &RunOptions) -> Outcome {
    let gauge = LoadGauge::default();
    let mut out = match opts.workload {
        Workload::DseShared | Workload::DseNovel => run_inproc(opts, &gauge),
        Workload::ServeTcp => run_tcp(opts, &gauge),
    };
    out.load_threads = gauge.peak();
    out
}

/// The measured window is cut into this many equal slices.
const SLICES: usize = 5;

/// Per-slice throughput and latency quantiles of the measured window.
fn slices(samples: &[JobSample], window_s: f64) -> Vec<(f64, f64, f64, f64)> {
    let width = window_s / SLICES as f64;
    (0..SLICES)
        .map(|k| {
            let (lo, hi) = (k as f64 * width, (k + 1) as f64 * width);
            let ms: Vec<f64> = samples
                .iter()
                .filter(|s| s.done_s >= lo && s.done_s < hi)
                .map(|s| s.latency_s * 1e3)
                .collect();
            (
                ratio(ms.len() as f64, width),
                quantile(&ms, 0.50),
                quantile(&ms, 0.90),
                quantile(&ms, 0.99),
            )
        })
        .collect()
}

/// Jobs completed inside the measured window, per second.
fn throughput(samples: &[JobSample], window_s: f64) -> f64 {
    let done = samples.iter().filter(|s| s.done_s <= window_s).count();
    ratio(done as f64, window_s)
}

fn end_to_end(out: &mut Outcome, setup: &[f64], samples: &[JobSample], window_s: f64) {
    let flips: u64 = samples.iter().map(|s| s.flips).sum();
    let sat: u64 = samples.iter().map(|s| s.sat).sum();
    let coverage: f64 = samples.iter().map(|s| s.coverage).sum();
    // Latency quantiles are medians over the slices, so a slow phase of
    // the host in one or two slices does not decide them.
    let slices = slices(samples, window_s);
    let of_slices = |pick: fn(&(f64, f64, f64, f64)) -> f64| {
        median(&slices.iter().map(pick).collect::<Vec<f64>>())
    };
    out.set("setup_s", median(setup));
    out.set("jobs_per_s", throughput(samples, window_s));
    out.set("job_p50_ms", of_slices(|s| s.1));
    out.set("job_p90_ms", of_slices(|s| s.2));
    out.set("job_p99_ms", of_slices(|s| s.3));
    out.set("mean_coverage", ratio(coverage, samples.len() as f64));
    out.set("sat_share", ratio(sat as f64, flips as f64));
    out.set("peak_rss_mb", peak_rss_mb());
    out.notes.push(format!(
        "slices (jobs/s, p50, p90, p99 ms): {}",
        slices
            .iter()
            .map(|(r, a, b, c)| format!("({r:.0}, {a:.3}, {b:.3}, {c:.3})"))
            .collect::<Vec<_>>()
            .join(" ")
    ));
    out.notes.push(format!(
        "{} jobs in a {window_s:.2} s window; latency quantiles are medians over {SLICES} \
         slices of {} samples on average{}; setup_s is the median of {} set-ups",
        samples.len(),
        samples.len() / SLICES,
        if samples.len() / SLICES < 1000 {
            " (fewer than 1000: a slice's p99 has fewer than 10 samples beyond it)"
        } else {
            ""
        },
        setup.len()
    ));
}

/// Notes a loop whose inputs ran out before its deadline.
fn note_exhausted(out: &mut Outcome, stage: &str, timed: &Timed, pool: usize) {
    if timed.exhausted {
        out.notes.push(format!(
            "{stage}: the pool of {pool} programs ran out after {:.2} s",
            timed.window_s
        ));
    }
}

/// Checks every sample (and every unanswered job) against reference
/// digests computed for the programs that ran.
fn check_outputs(
    workload: Workload,
    parsed: &[Parsed],
    samples: &[&JobSample],
    unanswered: &[usize],
) -> Tally {
    let needed: BTreeSet<usize> = samples.iter().map(|s| s.index).collect();
    let needed: Vec<usize> = needed.into_iter().collect();
    let inputs: Vec<_> = needed
        .iter()
        .map(|&i| (&parsed[i].program, &parsed[i].harness))
        .collect();
    let began = Instant::now();
    let references: HashMap<usize, Result<Digest, String>> = needed
        .iter()
        .copied()
        .zip(reference_digests(
            &inputs,
            &reference_config(workload),
            nproc(),
        ))
        .collect();
    eprintln!(
        "perfbench: reference digests of {} programs took {:.2} s",
        needed.len(),
        began.elapsed().as_secs_f64()
    );
    let mut tally = Tally::default();
    for s in samples {
        tally.check(&parsed[s.index].name, &s.outcome, &references[&s.index]);
    }
    for &i in unanswered {
        tally.missing(&parsed[i].name);
    }
    tally
}

fn finish(out: &mut Outcome, tally: Tally, replayed: Option<&Replay>) {
    let (regexes, wrong) = replayed.map_or((0, 0), |r| (r.regexes, r.failures));
    out.attempted = tally.attempted + regexes;
    out.failed = tally.failed + wrong;
    out.correct = out.failed == 0 && out.attempted > 0;
    out.set(
        "ok_share",
        1.0 - ratio(tally.failed as f64, tally.attempted as f64),
    );
    out.notes.push(format!(
        "output check: {} of {} jobs failed (failed_share {})",
        tally.failed,
        tally.attempted,
        ratio(tally.failed as f64, tally.attempted as f64)
    ));
}

/// Parses every input once, with one span per program; returns the
/// total milliseconds.
fn traced_parse(programs: &[Program], tracer: &mut Tracer) -> f64 {
    let began = Instant::now();
    for (i, p) in programs.iter().enumerate() {
        let t = Instant::now();
        let parsed = expose_dse::parser::parse_program(&p.source);
        tracer.span("dse.parser.parse", None, i as u64, t, Instant::now());
        tracer.finish_job();
        std::hint::black_box(parsed.is_ok());
    }
    began.elapsed().as_secs_f64() * 1e3
}

/// The regexes of the layer replay: `dse-novel`'s own, or (for the
/// other workloads) the ones `dse-novel` would draw from the same seed.
fn replay_regexes(opts: &RunOptions, novel: Option<Vec<gen::NovelRegex>>) -> Vec<gen::NovelRegex> {
    let mut regexes =
        novel.unwrap_or_else(|| gen::novel_regexes(opts.seed, opts.scale.replay_regexes).0);
    regexes.truncate(opts.scale.replay_regexes);
    regexes
}

/// The engine and layer metrics shared by every traced run.
fn layer_metrics(
    out: &mut Outcome,
    parse_ms: f64,
    c: &Counters,
    traces: u64,
    tracer: &Tracer,
    r: &Replay,
    table_hit_ratio: f64,
) {
    let per_job = |x: f64| ratio(x, c.jobs as f64);
    let us = |ns: u64, calls: u64| ratio(ns as f64 / 1e3, calls as f64);
    out.set("dse.parser.ms", parse_ms);
    out.set("dse.interp.executions", per_job(c.executions as f64));
    out.set(
        "dse.interp.ms",
        per_job(tracer.totals("dse.trace").self_ns as f64 / 1e6),
    );
    out.set("matcher.fast_path", per_job(c.matcher_fast_path as f64));
    out.set("matcher.fallback", per_job(c.matcher_fallback as f64));
    out.set("matcher.exec_us", us(r.exec_ns, r.execs));
    out.set("dse.engine.traces", per_job(traces as f64));
    out.set("dse.engine.flips", per_job(c.flips as f64));
    out.set(
        "dse.engine.flips_per_trace",
        ratio(c.flips as f64, traces as f64),
    );
    out.set("dse.solve.ms", per_job(c.solve_s * 1e3));
    out.set(
        "dse.solve.prefix_reuse_hits",
        per_job(c.prefix_reuse_hits as f64),
    );
    out.set("core.model.hits", per_job(c.model_hits as f64));
    out.set("core.model.misses", per_job(c.model_misses as f64));
    out.set(
        "core.model.hit_ratio",
        ratio(c.model_hits as f64, (c.model_hits + c.model_misses) as f64),
    );
    out.set("core.model.build_us", us(r.model_ns, r.regexes));
    out.set("core.cegar.refinements", per_job(c.refinements as f64));
    out.set("core.cegar.replays", per_job(c.replays as f64));
    out.set(
        "core.cegar.replay_ratio",
        ratio(c.replays as f64, c.flips as f64),
    );
    out.set("core.cegar.limit_hits", per_job(c.limit_hits as f64));
    out.set("core.cegar.solve_us", us(r.cegar_ns, r.regexes));
    out.set("strsolve.nodes", per_job(c.nodes as f64));
    out.set(
        "strsolve.nodes_per_flip",
        ratio(c.nodes as f64, c.flips as f64),
    );
    out.set("strsolve.length_prunes", per_job(c.length_prunes as f64));
    out.set(
        "strsolve.query_cache_hits",
        per_job(c.query_cache_hits as f64),
    );
    out.set("strsolve.solve_us", us(r.solve_ns, r.regexes));
    out.set("automata.states_built", per_job(c.states_built as f64));
    out.set(
        "automata.states_after_minimize",
        per_job(c.states_after_minimize as f64),
    );
    out.set("automata.dfa_cache_hits", per_job(c.dfa_cache_hits as f64));
    out.set("automata.table_hit_ratio", table_hit_ratio);
    out.set("automata.dfa_build_us", us(r.dfa_ns, r.dfas));
    out.set("regex-syntax-es6.parse_us", us(r.parse_ns, r.regexes));
    out.notes.push(format!(
        "engine-observed loop: {} jobs, {traces} traces, {} flips; layer replay: {} regexes, \
         {} classical DFAs ({} over the state cap), {} witnesses executed",
        c.jobs, c.flips, r.regexes, r.dfas, r.dfa_overflows, r.execs
    ));
}

fn write_spans(opts: &RunOptions, tracer: &Tracer, out: &mut Outcome) {
    if let Some(path) = &opts.spans_out {
        match tracer.write_ndjson(path) {
            Ok(()) => out
                .notes
                .push(format!("spans written to {}", path.display())),
            Err(e) => out
                .notes
                .push(format!("could not write spans to {}: {e}", path.display())),
        }
    }
}

fn overhead(out: &mut Outcome, untraced_rate: f64, traced_rate: f64) {
    out.set(
        "trace.overhead_share",
        ratio(untraced_rate - traced_rate, untraced_rate),
    );
    out.notes.push(format!(
        "tracing overhead: {untraced_rate:.1} jobs/s untraced vs {traced_rate:.1} jobs/s traced"
    ));
}

fn run_inproc(opts: &RunOptions, gauge: &LoadGauge) -> Outcome {
    let workload = opts.workload;
    let config = job_config(workload);
    let threads = nproc();
    let mut out = Outcome::default();

    let (programs, novel) = if workload == Workload::DseNovel {
        let (regexes, dropped) = gen::novel_regexes(opts.seed, opts.scale.novel_pool);
        out.notes.push(format!(
            "dse-novel filter kept {} fresh regexes and dropped {dropped}",
            regexes.len()
        ));
        (gen::novel_programs(&regexes), Some(regexes))
    } else {
        (
            gen::shared_pool(opts.seed, opts.scale.shared_generated),
            None,
        )
    };
    let mut order: Box<dyn Iterator<Item = usize> + Send> = if workload == Workload::DseNovel {
        Box::new(0..programs.len())
    } else {
        Box::new(Cycle::new(opts.seed, programs.len()))
    };

    let mut setup = Vec::new();
    let mut ready: Option<(Vec<Parsed>, Scheduler)> = None;
    for _ in 0..opts.scale.setup_reps.max(1) {
        if let Some((_, previous)) = ready.take() {
            previous.join();
        }
        let began = Instant::now();
        let parsed = parse_all(&programs);
        let scheduler = Scheduler::start(
            SchedulerConfig {
                workers: threads,
                max_inflight: 0,
            },
            CacheSet::session_from_config(&config),
        );
        if workload == Workload::DseShared {
            drive(
                &scheduler,
                &parsed,
                &config,
                &mut (0..parsed.len()),
                None,
                gauge,
                None,
            );
        }
        setup.push(began.elapsed().as_secs_f64());
        ready = Some((parsed, scheduler));
    }
    let (parsed, scheduler) = ready.expect("at least one set-up");
    let seconds = Duration::from_secs_f64(opts.seconds);
    out.notes.push(format!(
        "closed loop: {} jobs in flight over {threads} workers",
        inflight()
    ));

    if !opts.trace {
        let timed = drive(
            &scheduler,
            &parsed,
            &config,
            &mut order,
            Some(Instant::now() + seconds),
            gauge,
            None,
        );
        note_exhausted(&mut out, "timed loop", &timed, parsed.len());
        end_to_end(&mut out, &setup, &timed.samples, timed.window_s);
        scheduler.join();
        let samples: Vec<&JobSample> = timed.samples.iter().collect();
        finish(
            &mut out,
            check_outputs(workload, &parsed, &samples, &[]),
            None,
        );
        return out;
    }

    let half = seconds / 2;
    let origin = Instant::now();
    let mut tracer = Tracer::new(origin, 0, KEEP_SPANS);
    let parse_ms = traced_parse(&programs, &mut tracer);
    let untraced = drive(
        &scheduler,
        &parsed,
        &config,
        &mut order,
        Some(Instant::now() + half),
        gauge,
        None,
    );
    note_exhausted(&mut out, "untraced stage", &untraced, parsed.len());
    let latency_before = scheduler.latency();
    let steals_before: u64 = scheduler.shard_stats().iter().map(|s| s.steals).sum();
    let traced = drive(
        &scheduler,
        &parsed,
        &config,
        &mut order,
        Some(Instant::now() + half),
        gauge,
        Some(&mut tracer),
    );
    note_exhausted(&mut out, "traced stage", &traced, parsed.len());
    let latency_after = scheduler.latency();
    let steals_after: u64 = scheduler.shard_stats().iter().map(|s| s.steals).sum();
    let observed = observe(
        &parsed,
        &config,
        scheduler.caches(),
        &mut *order,
        Instant::now() + half,
        gauge,
        &mut tracer,
    );
    let table_hit_ratio = scheduler
        .caches()
        .dfa
        .as_ref()
        .map_or(0.0, |t| t.hit_rate());
    scheduler.join();
    let replayed = replay(
        &replay_regexes(opts, novel),
        Instant::now() + half,
        &mut tracer,
    );

    layer_metrics(
        &mut out,
        parse_ms,
        &observed.counters,
        observed.traces,
        &tracer,
        &replayed,
        table_hit_ratio,
    );
    let jobs = traced.samples.len() as f64;
    let job_wall_ms = (latency_after.sum_us - latency_before.sum_us) as f64 / 1e3;
    let latency_ms: f64 = traced.samples.iter().map(|s| s.latency_s * 1e3).sum();
    out.set(
        "dse.sched.queue_wait_ms",
        ratio(latency_ms - job_wall_ms, jobs),
    );
    out.set(
        "dse.sched.utilization",
        ratio(job_wall_ms / 1e3, threads as f64 * traced.window_s),
    );
    out.set("dse.sched.steals", (steals_after - steals_before) as f64);
    for name in [
        "service.overhead_p50_ms",
        "service.overhead_p99_ms",
        "service.bytes_per_job",
        "service.errors",
        "service.refused",
    ] {
        out.set(name, 0.0);
    }
    overhead(
        &mut out,
        throughput(&untraced.samples, untraced.window_s),
        throughput(&traced.samples, traced.window_s),
    );
    write_spans(opts, &tracer, &mut out);
    let samples: Vec<&JobSample> = untraced
        .samples
        .iter()
        .chain(&traced.samples)
        .chain(&observed.timed.samples)
        .collect();
    finish(
        &mut out,
        check_outputs(workload, &parsed, &samples, &[]),
        Some(&replayed),
    );
    out
}

/// Runs one soak per client, each on its own thread counted in
/// `gauge`. With a tracer, every client records spans on its own lane,
/// merged in at the end.
fn soak_all(
    clients: &mut [Client],
    submits: &[String],
    seed: u64,
    deadline: Option<Instant>,
    gauge: &LoadGauge,
    mut tracer: Option<&mut Tracer>,
) -> Vec<Soak> {
    let start = Instant::now();
    let count = clients.len();
    let base = tracer.as_deref();
    let results: Vec<(Soak, Option<Tracer>)> = std::thread::scope(|scope| {
        let handles: Vec<_> = clients
            .iter_mut()
            .enumerate()
            .map(|(c, client)| {
                let mut lane = base.map(|t| t.lane(c as u64 + 1, count));
                scope.spawn(move || {
                    let _load = gauge.enter();
                    // Without a deadline this is the warm-up pass: client
                    // `c` takes every `count`-th pool program once.
                    let mut order: Box<dyn Iterator<Item = usize>> = match deadline {
                        None => Box::new((c..submits.len()).step_by(count)),
                        Some(_) => Box::new(Cycle::new(
                            seed ^ (c as u64 + 1).wrapping_mul(0x9e37_79b9),
                            submits.len(),
                        )),
                    };
                    let soak =
                        tcp::soak(client, submits, &mut order, deadline, start, lane.as_mut())
                            .expect("client connection failed");
                    (soak, lane)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let mut soaks = Vec::with_capacity(results.len());
    for (soak, lane) in results {
        soaks.push(soak);
        if let (Some(tracer), Some(lane)) = (tracer.as_deref_mut(), lane) {
            tracer.merge(lane);
        }
    }
    soaks
}

fn connect_all(server: &Server, count: usize) -> Vec<Client> {
    (0..count)
        .map(|_| Client::connect(&server.addr).expect("connect to the loopback server"))
        .collect()
}

fn close_all(clients: Vec<Client>) {
    for client in clients {
        client.close().expect("close a client session");
    }
}

fn run_tcp(opts: &RunOptions, gauge: &LoadGauge) -> Outcome {
    let threads = nproc();
    let mut out = Outcome::default();
    let programs = gen::shared_pool(opts.seed, opts.scale.shared_generated);
    let submits: Vec<String> = programs.iter().map(tcp::submit_line).collect();

    let mut setup = Vec::new();
    let mut ready: Option<(Server, Vec<Client>)> = None;
    for _ in 0..opts.scale.setup_reps.max(1) {
        if let Some((server, clients)) = ready.take() {
            close_all(clients);
            server.stop().expect("stop the server");
        }
        let began = Instant::now();
        let server = Server::start().expect("start the loopback server");
        let mut clients = connect_all(&server, threads);
        soak_all(&mut clients, &submits, opts.seed, None, gauge, None);
        setup.push(began.elapsed().as_secs_f64());
        ready = Some((server, clients));
    }
    let (server, mut clients) = ready.expect("at least one set-up");
    // Connections the final server admitted, counted by the server.
    let admitted = server.accepted();
    out.connections = admitted as usize;
    let parsed = parse_all(&programs);
    let seconds = Duration::from_secs_f64(opts.seconds);

    if !opts.trace {
        let start = Instant::now();
        let soaks = soak_all(
            &mut clients,
            &submits,
            opts.seed,
            Some(start + seconds),
            gauge,
            None,
        );
        let samples: Vec<JobSample> = soaks.iter().flat_map(|s| s.samples.clone()).collect();
        let unanswered: Vec<usize> = soaks.iter().flat_map(|s| s.unanswered.clone()).collect();
        end_to_end(&mut out, &setup, &samples, seconds.as_secs_f64());
        close_all(clients);
        server.stop().expect("stop the server");
        let refs: Vec<&JobSample> = samples.iter().collect();
        finish(
            &mut out,
            check_outputs(Workload::ServeTcp, &parsed, &refs, &unanswered),
            None,
        );
        return out;
    }

    let half = seconds / 2;
    let origin = Instant::now();
    let mut tracer = Tracer::new(origin, 0, KEEP_SPANS);
    let parse_ms = traced_parse(&programs, &mut tracer);
    let untraced = soak_all(
        &mut clients,
        &submits,
        opts.seed,
        Some(Instant::now() + half),
        gauge,
        None,
    );
    close_all(clients);
    // Fresh connections for the traced soak, so each connection's
    // server-side histogram holds only traced jobs.
    let mut clients = connect_all(&server, threads);
    let traced = soak_all(
        &mut clients,
        &submits,
        opts.seed.wrapping_add(1),
        Some(Instant::now() + half),
        gauge,
        Some(&mut tracer),
    );
    // The untraced clients were closed first, so at most this many
    // connections were open at once.
    out.connections = out.connections.max((server.accepted() - admitted) as usize);
    let (bytes, errors, refused) = clients.iter().fold((0, 0, 0), |acc, c| {
        (
            acc.0 + c.sent + c.received,
            acc.1 + c.errors,
            acc.2 + c.refused,
        )
    });
    let server_side: Vec<ServerSide> = clients
        .iter_mut()
        .map(|c| c.metrics().expect("metrics line"))
        .collect();
    close_all(clients);
    let observed = observe(
        &parsed,
        &job_config(Workload::ServeTcp),
        &server.caches,
        &mut Cycle::new(opts.seed.wrapping_add(2), parsed.len()),
        Instant::now() + half,
        gauge,
        &mut tracer,
    );
    let table_hit_ratio = server.caches.dfa.as_ref().map_or(0.0, |t| t.hit_rate());
    server.stop().expect("stop the server");
    let replayed = replay(
        &replay_regexes(opts, None),
        Instant::now() + half,
        &mut tracer,
    );

    layer_metrics(
        &mut out,
        parse_ms,
        &observed.counters,
        observed.traces,
        &tracer,
        &replayed,
        table_hit_ratio,
    );
    // The service's schedulers run behind the socket: queue wait and
    // utilization are not observable from the client side.
    out.set("dse.sched.queue_wait_ms", 0.0);
    out.set("dse.sched.utilization", 0.0);
    out.set(
        "dse.sched.steals",
        server_side.iter().map(|s| s.steals).sum::<u64>() as f64,
    );
    let client_quantile = |soak: &Soak, q: f64| {
        let ms: Vec<f64> = soak.samples.iter().map(|s| s.latency_s * 1e3).collect();
        quantile(&ms, q)
    };
    let mean_over = |f: &dyn Fn(&Soak, &ServerSide) -> f64| {
        let values: Vec<f64> = traced
            .iter()
            .zip(&server_side)
            .map(|(t, s)| f(t, s))
            .collect();
        ratio(values.iter().sum(), values.len() as f64)
    };
    out.set(
        "service.overhead_p50_ms",
        mean_over(&|t, s| client_quantile(t, 0.50) - s.p50_ms),
    );
    out.set(
        "service.overhead_p99_ms",
        mean_over(&|t, s| client_quantile(t, 0.99) - s.p99_ms),
    );
    let traced_jobs: usize = traced.iter().map(|s| s.samples.len()).sum();
    out.set(
        "service.bytes_per_job",
        ratio(bytes as f64, traced_jobs as f64),
    );
    out.set("service.errors", errors as f64);
    out.set("service.refused", refused as f64);
    out.notes.push(format!(
        "service overhead = client quantile minus the server's bucketed job-latency quantile \
         ({} server-side samples)",
        server_side.iter().map(|s| s.jobs).sum::<u64>()
    ));
    let all = |soaks: &[Soak]| {
        soaks
            .iter()
            .flat_map(|s| s.samples.clone())
            .collect::<Vec<_>>()
    };
    let (untraced_samples, traced_samples) = (all(&untraced), all(&traced));
    overhead(
        &mut out,
        throughput(&untraced_samples, half.as_secs_f64()),
        throughput(&traced_samples, half.as_secs_f64()),
    );
    write_spans(opts, &tracer, &mut out);
    let unanswered: Vec<usize> = untraced
        .iter()
        .chain(&traced)
        .flat_map(|s| s.unanswered.clone())
        .collect();
    let samples: Vec<&JobSample> = untraced_samples
        .iter()
        .chain(&traced_samples)
        .chain(&observed.timed.samples)
        .collect();
    finish(
        &mut out,
        check_outputs(Workload::ServeTcp, &parsed, &samples, &unanswered),
        Some(&replayed),
    );
    out
}
