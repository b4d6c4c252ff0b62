//! A concurrent TCP soak client: N closed-loop clients submit the
//! benchmark corpus over real sockets and measure end-to-end per-job
//! latency — the client side of `serve-harness --soak` (the
//! `soak-smoke` CI job) and of the `perf --throughput` latency trajectory
//! (`latency_p50_ms`/`latency_p99_ms` in `BENCH_dse.json`).
//!
//! Each client is closed-loop (one submit in flight at a time), so the
//! measured latency is end-to-end service time — parse, schedule,
//! solve, emit — under `clients`-way concurrency, not queueing delay
//! behind the client's own backlog. Quantiles here are exact (sorted
//! samples), unlike the bucketed server-side histogram.

use std::io::{self, BufRead, BufReader, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

use expose_service::{corpus_submit_lines, CorpusBudget};

/// Options for one soak run.
#[derive(Debug, Clone)]
pub struct SoakOptions {
    /// Server address (`host:port`).
    pub addr: String,
    /// Concurrent client connections.
    pub clients: usize,
    /// Wall-clock budget in seconds; `0` means one corpus pass per
    /// client instead of a timed run.
    pub seconds: u64,
    /// Generated (Table 7) programs appended to the 11 library
    /// workloads of each corpus pass.
    pub generated: usize,
    /// Per-job execution budget preset.
    pub budget: CorpusBudget,
}

impl Default for SoakOptions {
    fn default() -> SoakOptions {
        SoakOptions {
            addr: String::new(),
            clients: 8,
            seconds: 0,
            generated: 10,
            budget: CorpusBudget::Quick,
        }
    }
}

/// Aggregated outcome of a soak run.
#[derive(Debug, Clone, Copy, Default)]
pub struct SoakReport {
    /// Jobs submitted across all clients.
    pub jobs: u64,
    /// Jobs answered with a `result` line.
    pub completed: u64,
    /// Jobs answered with an `error` line.
    pub errors: u64,
    /// Jobs that got no response at all (must be 0 for a healthy
    /// server).
    pub dropped: u64,
    /// Wall time of the whole run, milliseconds.
    pub wall_ms: f64,
    /// Median end-to-end job latency, milliseconds (exact).
    pub latency_p50_ms: f64,
    /// 99th-percentile end-to-end job latency, milliseconds (exact).
    pub latency_p99_ms: f64,
    /// Slowest job, milliseconds.
    pub latency_max_ms: f64,
}

struct ClientOutcome {
    submitted: u64,
    completed: u64,
    errors: u64,
    latencies: Vec<Duration>,
}

/// One closed-loop client: submit a job, wait for its `result` (or
/// `error`) line, repeat over the corpus until the deadline (or for
/// one pass when there is none), then shut down cleanly and drain the
/// stream to EOF.
fn client_loop(
    addr: &str,
    lines: &[String],
    deadline: Option<Instant>,
) -> io::Result<ClientOutcome> {
    let stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true).ok();
    let mut reader = BufReader::new(stream.try_clone()?);
    let mut writer = stream;
    let mut outcome = ClientOutcome {
        submitted: 0,
        completed: 0,
        errors: 0,
        latencies: Vec::new(),
    };
    let mut response = String::new();
    'run: loop {
        for line in lines {
            if deadline.is_some_and(|d| Instant::now() >= d) {
                break 'run;
            }
            let sent = Instant::now();
            writeln!(writer, "{line}")?;
            writer.flush()?;
            outcome.submitted += 1;
            loop {
                response.clear();
                if reader.read_line(&mut response)? == 0 {
                    // Server went away mid-job: the submit counts as
                    // dropped.
                    break 'run;
                }
                if response.contains("\"type\":\"result\"") {
                    outcome.completed += 1;
                    outcome.latencies.push(sent.elapsed());
                    break;
                }
                if response.contains("\"type\":\"error\"") {
                    outcome.errors += 1;
                    break;
                }
                // Any other line (status, draining notice…) is not the
                // answer to this job; keep reading.
            }
        }
        if deadline.is_none() {
            break;
        }
    }
    let _ = writer.write_all(b"{\"type\":\"shutdown\"}\n");
    let _ = writer.flush();
    // Drain the tail (pending results were already consumed; the done
    // line and EOF confirm a clean close).
    loop {
        response.clear();
        match reader.read_line(&mut response) {
            Ok(0) | Err(_) => break,
            Ok(_) => {
                if response.contains("\"type\":\"result\"") {
                    outcome.completed += 1;
                }
            }
        }
    }
    Ok(outcome)
}

/// Runs `options.clients` concurrent closed-loop clients against a
/// serving `--listen tcp:` endpoint and aggregates exact latency
/// quantiles.
pub fn run_soak(options: &SoakOptions) -> io::Result<SoakReport> {
    let lines = corpus_submit_lines(options.generated, options.budget);
    let deadline =
        (options.seconds > 0).then(|| Instant::now() + Duration::from_secs(options.seconds));
    let started = Instant::now();
    let outcomes: Vec<io::Result<ClientOutcome>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..options.clients.max(1))
            .map(|_| scope.spawn(|| client_loop(&options.addr, &lines, deadline)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("soak client panicked"))
            .collect()
    });
    let wall_ms = started.elapsed().as_secs_f64() * 1e3;
    let mut report = SoakReport {
        wall_ms,
        ..SoakReport::default()
    };
    let mut latencies: Vec<Duration> = Vec::new();
    for outcome in outcomes {
        let outcome = outcome?;
        report.jobs += outcome.submitted;
        report.completed += outcome.completed;
        report.errors += outcome.errors;
        latencies.extend(outcome.latencies);
    }
    report.dropped = report.jobs.saturating_sub(report.completed + report.errors);
    latencies.sort_unstable();
    let quantile = |q: f64| -> f64 {
        if latencies.is_empty() {
            return 0.0;
        }
        let rank = ((latencies.len() as f64 - 1.0) * q).round() as usize;
        latencies[rank.min(latencies.len() - 1)].as_secs_f64() * 1e3
    };
    report.latency_p50_ms = quantile(0.50);
    report.latency_p99_ms = quantile(0.99);
    report.latency_max_ms = latencies
        .last()
        .map(|d| d.as_secs_f64() * 1e3)
        .unwrap_or(0.0);
    Ok(report)
}
