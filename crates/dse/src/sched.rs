//! Sharded scheduler for DSE job streams.
//!
//! ExpoSE's evaluation (§6.2) runs thousands of *independent* DSE jobs
//! — the embarrassingly job-parallel shape a long-running service
//! should exploit. [`Scheduler`] replaces the static fan-out of the old
//! `run_batch` with a session-scoped pool of worker shards:
//!
//! * jobs wait in one FIFO queue under the scheduler's state lock; an
//!   idle shard pops the oldest job and parks only while the queue is
//!   empty, so no shard idles while work is queued;
//! * all shards share one [`CacheSet`] (regex models, solver verdicts,
//!   and the DFA intern tables), so a regex determinized for one job
//!   is free for every other job of the session;
//! * completions are re-sequenced by [`JobId`] before they are handed
//!   to the consumer: the per-job engine is deterministic and every
//!   cache layer is verdict-preserving, so the *results* of a session
//!   — and any stream rendered from them — are byte-identical for any
//!   worker count and any interleaving;
//! * submission applies backpressure: with a bound configured,
//!   [`Scheduler::submit`] blocks while too many jobs are in flight,
//!   which is what lets a service front-end stop reading its input
//!   instead of buffering without limit.
//!
//! Scheduling-dependent *observables* (wall-clock, which shard ran a
//! job, cache hit/miss splits) live in [`ShardStats`] and the cache
//! counters, deliberately outside the deterministic result stream.

use std::collections::{HashMap, VecDeque};
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use crate::batch::Job;
use crate::caching::CacheSet;
use crate::engine::{resolve_workers, run_dse_with_caches, Report};

/// Monotonic job identifier, assigned at submission. Results are
/// re-sequenced by this id, so it doubles as the output position.
pub type JobId = u64;

/// Scheduler configuration. The default is auto-sized workers
/// (`workers == 0` means `max(1, available_parallelism)`) with
/// backpressure disabled.
#[derive(Debug, Clone, Default)]
pub struct SchedulerConfig {
    /// Worker shards. `0` means "auto": `max(1,
    /// available_parallelism)`.
    pub workers: usize,
    /// Maximum jobs in flight (submitted but not yet drained by the
    /// consumer); [`Scheduler::submit`] blocks at the bound. `0`
    /// disables backpressure.
    pub max_inflight: usize,
}

/// Per-shard scheduling counters (observability only — none of these
/// feed the deterministic result stream).
#[derive(Debug, Clone, Default)]
pub struct ShardStats {
    /// Jobs this shard executed.
    pub jobs_run: u64,
    /// Always 0: shards pop one shared queue, so nothing is stolen.
    /// Kept for the `steals` key of `stats` lines and the benchmark
    /// counter that reads it.
    pub steals: u64,
}

/// One finished job, tagged with its submission id and name.
#[derive(Debug)]
pub struct Completion {
    /// Submission id (= position in the re-sequenced output).
    pub id: JobId,
    /// Job label, echoed from [`Job::name`].
    pub name: String,
    /// The report, or an error message (submission-time rejection or a
    /// panicking job).
    pub outcome: Result<Report, String>,
}

/// A snapshot of session-level progress counters.
#[derive(Debug, Clone, Default)]
pub struct Progress {
    /// Jobs submitted (including rejected submissions).
    pub submitted: u64,
    /// Jobs whose completion has been drained by the consumer.
    pub drained: u64,
    /// Jobs submitted but not yet drained.
    pub inflight: u64,
    /// Jobs finished but still waiting for an earlier id to drain.
    pub resequencing: u64,
    /// Jobs submitted but not yet claimed by any shard (the queue
    /// depth a metrics endpoint reports).
    pub queued: u64,
}

/// Number of power-of-two latency buckets: bucket `i` counts samples
/// in `[2^i, 2^(i+1))` microseconds, so 40 buckets span ~1 µs to ~12
/// days — far beyond any DSE job.
const LATENCY_BUCKETS: usize = 40;

/// A lock-free log-scale latency histogram: fixed power-of-two
/// microsecond buckets updated with relaxed atomics, so shards (and a
/// service's reader thread) record wall times without ever contending
/// on a lock. Quantiles are read from a [`LatencySnapshot`]; they are
/// bucket-granular (exact to within 2x), which is plenty for the
/// p50/p99 trend a metrics endpoint reports. Like [`ShardStats`],
/// latencies are observability data — never part of the deterministic
/// result stream.
#[derive(Debug)]
pub struct LatencyHistogram {
    buckets: [AtomicU64; LATENCY_BUCKETS],
    count: AtomicU64,
    sum_us: AtomicU64,
    max_us: AtomicU64,
}

impl Default for LatencyHistogram {
    fn default() -> LatencyHistogram {
        LatencyHistogram::new()
    }
}

impl LatencyHistogram {
    /// An empty histogram.
    pub const fn new() -> LatencyHistogram {
        LatencyHistogram {
            buckets: [const { AtomicU64::new(0) }; LATENCY_BUCKETS],
            count: AtomicU64::new(0),
            sum_us: AtomicU64::new(0),
            max_us: AtomicU64::new(0),
        }
    }

    /// Records one sample.
    pub fn record(&self, elapsed: Duration) {
        self.record_us(elapsed.as_micros().min(u128::from(u64::MAX)) as u64);
    }

    /// Records one sample given in microseconds.
    pub fn record_us(&self, us: u64) {
        let bucket = (63 - us.max(1).leading_zeros() as usize).min(LATENCY_BUCKETS - 1);
        self.buckets[bucket].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum_us.fetch_add(us, Ordering::Relaxed);
        self.max_us.fetch_max(us, Ordering::Relaxed);
    }

    /// A consistent-enough snapshot for reporting (concurrent records
    /// may straddle the reads; quantiles are bucket-granular anyway).
    pub fn snapshot(&self) -> LatencySnapshot {
        let counts: Vec<u64> = self
            .buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect();
        let count: u64 = counts.iter().sum();
        let quantile = |q: f64| -> u64 {
            if count == 0 {
                return 0;
            }
            let rank = ((count as f64 * q).ceil() as u64).clamp(1, count);
            let mut seen = 0u64;
            for (i, n) in counts.iter().enumerate() {
                seen += n;
                if seen >= rank {
                    // Upper bound of the bucket: pessimistic by at
                    // most 2x, monotone in the rank.
                    return (1u64 << (i + 1)).saturating_sub(1);
                }
            }
            self.max_us.load(Ordering::Relaxed)
        };
        LatencySnapshot {
            count,
            sum_us: self.sum_us.load(Ordering::Relaxed),
            p50_us: quantile(0.50),
            p99_us: quantile(0.99),
            max_us: self.max_us.load(Ordering::Relaxed),
        }
    }
}

/// One point-in-time read of a [`LatencyHistogram`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LatencySnapshot {
    /// Samples recorded.
    pub count: u64,
    /// Sum of all samples in microseconds.
    pub sum_us: u64,
    /// Median, in microseconds (bucket upper bound).
    pub p50_us: u64,
    /// 99th percentile, in microseconds (bucket upper bound).
    pub p99_us: u64,
    /// Largest sample, in microseconds (exact).
    pub max_us: u64,
}

impl LatencySnapshot {
    /// Median in milliseconds.
    pub fn p50_ms(&self) -> f64 {
        self.p50_us as f64 / 1e3
    }

    /// 99th percentile in milliseconds.
    pub fn p99_ms(&self) -> f64 {
        self.p99_us as f64 / 1e3
    }

    /// Largest sample in milliseconds.
    pub fn max_ms(&self) -> f64 {
        self.max_us as f64 / 1e3
    }
}

struct Task {
    id: JobId,
    job: Job,
}

struct State {
    next_id: JobId,
    next_emit: JobId,
    /// Tasks submitted but not yet claimed by any shard, oldest first.
    queue: VecDeque<Task>,
    /// Completions not yet drained, keyed by id.
    finished: HashMap<JobId, Completion>,
    /// No further submissions; shards exit once the queue drains.
    closed: bool,
    shard_stats: Vec<ShardStats>,
}

struct Shared {
    caches: CacheSet,
    max_inflight: usize,
    state: Mutex<State>,
    /// Waited on by idle shards; signaled on submit and close.
    work_ready: Condvar,
    /// Waited on by the consumer (ordered drain) and by submitters
    /// blocked on backpressure; signaled on completion and drain.
    progress: Condvar,
    /// Wall time of each completed job, recorded lock-free by the
    /// shards for the metrics endpoint.
    latency: LatencyHistogram,
}

impl Shared {
    fn lock(&self) -> std::sync::MutexGuard<'_, State> {
        self.state.lock().expect("scheduler state poisoned")
    }
}

/// A session-scoped, sharded DSE job scheduler. See the module
/// docs for the architecture.
///
/// # Examples
///
/// ```
/// use expose_dse::sched::{Scheduler, SchedulerConfig};
/// use expose_dse::{batch::Job, parser::parse_program, CacheSet, EngineConfig, Harness};
///
/// let scheduler = Scheduler::start(
///     SchedulerConfig { workers: 2, ..SchedulerConfig::default() },
///     CacheSet::session(64, 64, 64),
/// );
/// for i in 0..4 {
///     scheduler.submit(Job {
///         name: format!("job{i}"),
///         program: parse_program(
///             r#"function f(x) { if (x === "k") { return 1; } return 0; }"#,
///         ).expect("parse"),
///         harness: Harness::strings("f", 1),
///         config: EngineConfig { max_executions: 4, ..EngineConfig::default() },
///     });
/// }
/// scheduler.close();
/// let mut seen = 0;
/// while let Some(completion) = scheduler.next_ordered() {
///     assert_eq!(completion.id, seen); // re-sequenced by job id
///     assert!(completion.outcome.expect("ran").coverage_fraction() > 0.9);
///     seen += 1;
/// }
/// assert_eq!(seen, 4);
/// ```
pub struct Scheduler {
    shared: Arc<Shared>,
    handles: Vec<std::thread::JoinHandle<()>>,
}

impl Scheduler {
    /// Starts `config.workers` shards sharing `caches`.
    pub fn start(config: SchedulerConfig, caches: CacheSet) -> Scheduler {
        let workers = resolve_workers(config.workers);
        let shared = Arc::new(Shared {
            caches,
            max_inflight: config.max_inflight,
            state: Mutex::new(State {
                next_id: 0,
                next_emit: 0,
                queue: VecDeque::new(),
                finished: HashMap::new(),
                closed: false,
                shard_stats: vec![ShardStats::default(); workers],
            }),
            work_ready: Condvar::new(),
            progress: Condvar::new(),
            latency: LatencyHistogram::new(),
        });
        let handles = (0..workers)
            .map(|shard| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("dse-shard-{shard}"))
                    .spawn(move || shard_loop(&shared, shard))
                    .expect("spawn shard")
            })
            .collect();
        Scheduler { shared, handles }
    }

    /// The session cache set shared by all shards.
    pub fn caches(&self) -> &CacheSet {
        &self.shared.caches
    }

    /// Number of worker shards.
    pub fn workers(&self) -> usize {
        self.handles.len()
    }

    /// Submits a job, returning its id (= output position). Blocks
    /// while the in-flight bound is reached — the backpressure that
    /// lets a front-end stop reading input.
    ///
    /// # Panics
    ///
    /// Panics if the session was already closed.
    pub fn submit(&self, job: Job) -> JobId {
        let mut state = self.shared.lock();
        while self.shared.max_inflight > 0
            && (state.next_id - state.next_emit) as usize >= self.shared.max_inflight
            && !state.closed
        {
            state = self
                .shared
                .progress
                .wait(state)
                .expect("scheduler state poisoned");
        }
        assert!(!state.closed, "submit after close");
        let id = state.next_id;
        state.next_id += 1;
        state.queue.push_back(Task { id, job });
        drop(state);
        self.shared.work_ready.notify_one();
        id
    }

    /// Records a submission-time rejection (e.g. a program that failed
    /// to parse) as an ordinary completion, so the error occupies its
    /// position in the re-sequenced output instead of racing it.
    pub fn submit_rejected(&self, name: impl Into<String>, error: impl Into<String>) -> JobId {
        let mut state = self.shared.lock();
        assert!(!state.closed, "submit after close");
        let id = state.next_id;
        state.next_id += 1;
        state.finished.insert(
            id,
            Completion {
                id,
                name: name.into(),
                outcome: Err(error.into()),
            },
        );
        drop(state);
        self.shared.progress.notify_all();
        id
    }

    /// Closes the session: no further submissions; shards exit once
    /// the queue drains; [`Scheduler::next_ordered`] returns `None`
    /// after the last completion.
    pub fn close(&self) {
        let mut state = self.shared.lock();
        state.closed = true;
        drop(state);
        self.shared.work_ready.notify_all();
        self.shared.progress.notify_all();
    }

    /// The next completion in job-id order. Blocks until job
    /// `next_emit` finishes; returns `None` once the session is closed
    /// and fully drained. Completions arriving out of order are held
    /// back here — this is what makes the output stream byte-identical
    /// for any worker count.
    pub fn next_ordered(&self) -> Option<Completion> {
        let mut state = self.shared.lock();
        loop {
            let emit = state.next_emit;
            if let Some(completion) = state.finished.remove(&emit) {
                state.next_emit += 1;
                drop(state);
                // Draining frees an in-flight slot: wake blocked
                // submitters.
                self.shared.progress.notify_all();
                return Some(completion);
            }
            if state.closed && state.next_emit >= state.next_id {
                return None;
            }
            state = self
                .shared
                .progress
                .wait(state)
                .expect("scheduler state poisoned");
        }
    }

    /// A snapshot of session progress.
    pub fn progress(&self) -> Progress {
        let state = self.shared.lock();
        Progress {
            submitted: state.next_id,
            drained: state.next_emit,
            inflight: state.next_id - state.next_emit,
            resequencing: state.finished.len() as u64,
            queued: state.queue.len() as u64,
        }
    }

    /// A snapshot of the per-job wall-time histogram.
    pub fn latency(&self) -> LatencySnapshot {
        self.shared.latency.snapshot()
    }

    /// A snapshot of the per-shard scheduling counters.
    pub fn shard_stats(&self) -> Vec<ShardStats> {
        self.shared.lock().shard_stats.clone()
    }

    /// Closes the session and joins all shards.
    ///
    /// # Panics
    ///
    /// Propagates a shard thread panic (shards themselves never panic;
    /// panicking *jobs* are captured as `Err` completions).
    pub fn join(mut self) {
        self.close();
        for handle in self.handles.drain(..) {
            handle.join().expect("shard thread panicked");
        }
    }
}

impl Drop for Scheduler {
    fn drop(&mut self) {
        self.close();
        for handle in self.handles.drain(..) {
            // Best-effort join; a panic here would abort on double
            // panic during unwinding.
            let _ = handle.join();
        }
    }
}

/// One shard: pop the oldest task, run it, complete it; exit when the
/// session is closed and the queue is empty.
fn shard_loop(shared: &Shared, shard: usize) {
    while let Some(Task { id, job }) = next_task(shared) {
        let name = job.name.clone();
        let started = Instant::now();
        let outcome = std::panic::catch_unwind(AssertUnwindSafe(|| {
            run_dse_with_caches(&job.program, &job.harness, &job.config, &shared.caches)
        }))
        .map_err(|payload| {
            let message = payload
                .downcast_ref::<&str>()
                .map(|s| (*s).to_string())
                .or_else(|| payload.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "job panicked".to_string());
            format!("job panicked: {message}")
        });
        shared.latency.record(started.elapsed());
        let mut state = shared.lock();
        state.shard_stats[shard].jobs_run += 1;
        state.finished.insert(id, Completion { id, name, outcome });
        drop(state);
        shared.progress.notify_all();
    }
}

/// Pops the oldest queued task, parking while the queue is empty;
/// `None` once the session is closed and the queue is empty.
fn next_task(shared: &Shared) -> Option<Task> {
    shared
        .work_ready
        .wait_while(shared.lock(), |state| {
            state.queue.is_empty() && !state.closed
        })
        .expect("scheduler state poisoned")
        .queue
        .pop_front()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::EngineConfig;
    use crate::interp::Harness;
    use crate::parser::parse_program;

    fn job(name: &str, src: &str) -> Job {
        Job {
            name: name.into(),
            program: parse_program(src).expect("parse"),
            harness: Harness::strings("f", 1),
            config: EngineConfig {
                max_executions: 4,
                ..EngineConfig::default()
            },
        }
    }

    fn simple(name: &str, key: &str) -> Job {
        job(
            name,
            &format!(r#"function f(x) {{ if (x === "{key}") {{ return 1; }} return 0; }}"#),
        )
    }

    #[test]
    fn resequences_completions_by_id() {
        let scheduler = Scheduler::start(
            SchedulerConfig {
                workers: 4,
                ..SchedulerConfig::default()
            },
            CacheSet::session(64, 64, 64),
        );
        for i in 0..16 {
            scheduler.submit(simple(&format!("job{i}"), &format!("k{i}")));
        }
        scheduler.close();
        let mut expected = 0;
        while let Some(completion) = scheduler.next_ordered() {
            assert_eq!(completion.id, expected);
            assert_eq!(completion.name, format!("job{expected}"));
            assert!(completion.outcome.is_ok());
            expected += 1;
        }
        assert_eq!(expected, 16);
        let stats = scheduler.shard_stats();
        let run: u64 = stats.iter().map(|s| s.jobs_run).sum();
        assert_eq!(run, 16);
    }

    #[test]
    fn rejected_submissions_hold_their_position() {
        let scheduler = Scheduler::start(
            SchedulerConfig {
                workers: 2,
                ..SchedulerConfig::default()
            },
            CacheSet::session(16, 16, 16),
        );
        scheduler.submit(simple("ok0", "a"));
        scheduler.submit_rejected("broken", "parse error: unexpected token");
        scheduler.submit(simple("ok2", "b"));
        scheduler.close();
        let first = scheduler.next_ordered().expect("job 0");
        let second = scheduler.next_ordered().expect("job 1");
        let third = scheduler.next_ordered().expect("job 2");
        assert!(scheduler.next_ordered().is_none());
        assert!(first.outcome.is_ok());
        assert_eq!(second.name, "broken");
        assert!(second.outcome.unwrap_err().contains("parse error"));
        assert!(third.outcome.is_ok());
    }

    #[test]
    fn backpressure_bounds_inflight() {
        let scheduler = Scheduler::start(
            SchedulerConfig {
                workers: 2,
                max_inflight: 4,
            },
            CacheSet::session(16, 16, 16),
        );
        // Submit more than the bound from this thread while a drainer
        // runs on another: submission can only finish because draining
        // frees slots.
        std::thread::scope(|scope| {
            let drainer = scope.spawn(|| {
                let mut drained = 0;
                while scheduler.next_ordered().is_some() {
                    drained += 1;
                }
                drained
            });
            for i in 0..12 {
                scheduler.submit(simple(&format!("job{i}"), "x"));
                assert!(scheduler.progress().inflight <= 4);
            }
            scheduler.close();
            assert_eq!(drainer.join().expect("drainer"), 12);
        });
    }

    #[test]
    fn eight_workers_under_tight_backpressure_lose_no_job() {
        const JOBS: u64 = 300;
        let scheduler = Scheduler::start(
            SchedulerConfig {
                workers: 8,
                max_inflight: 2,
            },
            CacheSet::session(64, 64, 64),
        );
        // Tiny jobs keep the shards racing for the queue while the
        // submitter parks on the bound and the drainer frees slots.
        std::thread::scope(|scope| {
            let drainer = scope.spawn(|| {
                let mut expected = 0;
                while let Some(completion) = scheduler.next_ordered() {
                    assert_eq!(completion.id, expected);
                    assert_eq!(completion.name, format!("job{expected}"));
                    assert!(completion.outcome.is_ok());
                    expected += 1;
                }
                expected
            });
            for i in 0..JOBS {
                let mut job = simple(&format!("job{i}"), &format!("k{}", i % 7));
                job.config.max_executions = 1;
                assert_eq!(scheduler.submit(job), i);
                assert!(scheduler.progress().inflight <= 2);
            }
            scheduler.close();
            assert_eq!(drainer.join().expect("drainer"), JOBS);
        });
        let run: u64 = scheduler.shard_stats().iter().map(|s| s.jobs_run).sum();
        assert_eq!(run, JOBS);
        let progress = scheduler.progress();
        assert_eq!(progress.submitted, JOBS);
        assert_eq!(progress.drained, JOBS);
        assert_eq!(progress.queued, 0);
        scheduler.join();
    }

    #[test]
    fn odd_jobs_do_not_stall_the_stream() {
        let scheduler = Scheduler::start(
            SchedulerConfig {
                workers: 1,
                ..SchedulerConfig::default()
            },
            CacheSet::session(16, 16, 16),
        );
        // A harness naming a missing entry runs as an (empty) execution
        // rather than an error; the shard must complete it and move on
        // to the next job either way.
        let mut odd = simple("odd", "x");
        odd.harness = Harness::strings("missing_entry", 1);
        scheduler.submit(odd);
        scheduler.submit(simple("good", "y"));
        scheduler.close();
        let first = scheduler.next_ordered().expect("completion 0");
        let second = scheduler.next_ordered().expect("completion 1");
        assert!(scheduler.next_ordered().is_none());
        let report = first.outcome.expect("empty run, not an error");
        assert_eq!(report.tests_generated, 0);
        let report = second.outcome.expect("ran");
        assert!(report.coverage_fraction() > 0.9);
    }

    #[test]
    fn progress_counters_track_the_session() {
        let scheduler = Scheduler::start(
            SchedulerConfig {
                workers: 2,
                ..SchedulerConfig::default()
            },
            CacheSet::session(16, 16, 16),
        );
        assert_eq!(scheduler.progress().submitted, 0);
        scheduler.submit(simple("a", "1"));
        scheduler.submit(simple("b", "2"));
        scheduler.close();
        let mut drained = 0;
        while scheduler.next_ordered().is_some() {
            drained += 1;
        }
        assert_eq!(drained, 2);
        let progress = scheduler.progress();
        assert_eq!(progress.submitted, 2);
        assert_eq!(progress.drained, 2);
        assert_eq!(progress.inflight, 0);
        assert_eq!(progress.resequencing, 0);
        assert_eq!(progress.queued, 0);
        // Every completed job left a latency sample behind. Quantiles
        // are bucket upper bounds, so p50 may exceed the exact max —
        // but never by more than the max sample's own bucket bound.
        let latency = scheduler.latency();
        assert_eq!(latency.count, 2);
        assert!(latency.p99_us >= latency.p50_us);
        assert!(latency.sum_us >= latency.max_us);
        assert!(u128::from(latency.p50_us) <= 2 * u128::from(latency.max_us.max(1)));
        scheduler.join();
    }

    #[test]
    fn histogram_quantiles_are_bucket_upper_bounds() {
        let histogram = LatencyHistogram::new();
        assert_eq!(histogram.snapshot(), LatencySnapshot::default());
        // 99 samples in [64, 128) µs and one slow outlier.
        for i in 0..99u64 {
            histogram.record_us(64 + (i % 60));
        }
        histogram.record_us(250_000);
        let snapshot = histogram.snapshot();
        assert_eq!(snapshot.count, 100);
        assert_eq!(snapshot.p50_us, 127); // upper bound of [64, 128)
        assert_eq!(snapshot.p99_us, 127); // rank 99 still in the bulk
        assert_eq!(snapshot.max_us, 250_000);
        assert!(snapshot.p99_ms() <= snapshot.max_ms());
        // One more outlier pushes rank-p99 into the slow bucket.
        histogram.record_us(250_000);
        let snapshot = histogram.snapshot();
        assert!(snapshot.p99_us >= 131_071, "p99 {}", snapshot.p99_us);
    }
}
