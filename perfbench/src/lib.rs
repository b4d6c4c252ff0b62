//! The repository benchmark: three seeded workloads driven through the
//! public entry points of the DSE pipeline, measured end to end, plus a
//! traced run that attributes the time to layers.
//!
//! * `dse-shared` — library workloads plus thousands of generated
//!   programs whose regexes repeat, through one warm `Scheduler`;
//! * `dse-novel` — every job carries a fresh fuzz-generated regex,
//!   cold caches, no warm-up;
//! * `serve-tcp` — the `dse-shared` pool through `serve_listener` over
//!   loopback TCP, driven by closed-loop clients.
//!
//! See `README.md` in this directory for the metric map.

pub mod check;
pub mod gen;
pub mod inproc;
pub mod metrics;
pub mod replay;
pub mod run;
pub mod stats;
pub mod tcp;
pub mod trace;

use std::sync::atomic::{AtomicUsize, Ordering};

use expose_dse::EngineConfig;
use expose_service::ServiceConfig;
use strsolve::SolverConfig;

/// The three workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Repeated regexes through one warm scheduler.
    DseShared,
    /// Fresh regexes, cold caches.
    DseNovel,
    /// The shared pool over loopback TCP.
    ServeTcp,
}

impl Workload {
    /// All workloads, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [Workload::DseShared, Workload::DseNovel, Workload::ServeTcp];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::DseShared => "dse-shared",
            Workload::DseNovel => "dse-novel",
            Workload::ServeTcp => "serve-tcp",
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Input sizes. `full` is what `BENCHMARK.json` runs; `tiny` keeps the
/// self-tests fast.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    /// Generated programs in the `dse-shared`/`serve-tcp` pool (on top
    /// of the eleven library workloads).
    pub shared_generated: usize,
    /// Fresh regexes in the `dse-novel` pool. A fixed count, so the
    /// parsing that `setup_s` includes is the same work on every host
    /// and run length; a run that uses them all up stops early.
    pub novel_pool: usize,
    /// Set-up repetitions per run; `setup_s` is their median.
    pub setup_reps: usize,
    /// Regexes the traced run's layer replay goes through.
    pub replay_regexes: usize,
}

impl Scale {
    /// The benchmark's sizes. On two cores a 20 s `dse-novel` run takes
    /// about 8,000 jobs and a traced run about 11,500, so its pool of
    /// 16,000 leaves room for faster code or a few more cores.
    pub fn full() -> Scale {
        Scale {
            shared_generated: 1000,
            novel_pool: 16_000,
            setup_reps: 3,
            replay_regexes: 400,
        }
    }

    /// Self-test sizes.
    pub fn tiny() -> Scale {
        Scale {
            shared_generated: 30,
            novel_pool: 40,
            setup_reps: 2,
            replay_regexes: 12,
        }
    }
}

/// Options of one benchmark run.
#[derive(Debug, Clone)]
pub struct RunOptions {
    /// Which workload.
    pub workload: Workload,
    /// Input seed.
    pub seed: u64,
    /// Measured seconds.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of the end-to-end run.
    pub trace: bool,
    /// Input sizes.
    pub scale: Scale,
    /// Where the traced run writes its spans (`None` = nowhere).
    pub spans_out: Option<std::path::PathBuf>,
}

/// Worker threads, client connections and load-generator threads: the
/// machine's available parallelism.
pub fn nproc() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

/// Jobs an in-process loop keeps in flight: the service's default
/// `max_inflight`, the depth one `expose-serve` connection may queue.
/// The loop drains completions in submission order, and a queue this
/// deep keeps every worker busy while one slow job holds the head.
pub fn inflight() -> usize {
    ServiceConfig::default().max_inflight
}

/// Counts the benchmark's own load-generating threads: how many run at
/// once, and the most that ever did.
#[derive(Debug, Default)]
pub struct LoadGauge {
    live: AtomicUsize,
    peak: AtomicUsize,
}

impl LoadGauge {
    /// Counts the calling thread as generating load until the guard
    /// drops.
    pub fn enter(&self) -> LoadGuard<'_> {
        let live = self.live.fetch_add(1, Ordering::SeqCst) + 1;
        self.peak.fetch_max(live, Ordering::SeqCst);
        LoadGuard(self)
    }

    /// The most threads that generated load at once.
    pub fn peak(&self) -> usize {
        self.peak.load(Ordering::SeqCst)
    }
}

/// One thread's registration with a [`LoadGauge`].
#[derive(Debug)]
pub struct LoadGuard<'a>(&'a LoadGauge);

impl Drop for LoadGuard<'_> {
    fn drop(&mut self) {
        self.0.live.fetch_sub(1, Ordering::SeqCst);
    }
}

/// The per-job engine configuration of a workload: the quick budget (40
/// executions, 50k interpreter steps) with serial flip solving. Fresh
/// fuzz regexes use the solver's `fast` limits with a 2,000-node search
/// budget, so a few regexes cannot spend seconds exhausting a search
/// budget and dominate a run.
pub fn job_config(workload: Workload) -> EngineConfig {
    let solver = match workload {
        Workload::DseNovel => SolverConfig {
            max_nodes: 2_000,
            ..SolverConfig::fast()
        },
        Workload::DseShared | Workload::ServeTcp => SolverConfig::default(),
    };
    EngineConfig {
        max_executions: 40,
        max_steps: 50_000,
        flip_workers: 1,
        solver,
        ..EngineConfig::default()
    }
}

/// The reference configuration of the output check: the same limits,
/// serial flip solving and no shared caches. It runs with
/// `DseCaches::disabled()`, so no model, verdict or DFA table outlives
/// its job (each job's solver keeps its private DFA memo).
pub fn reference_config(workload: Workload) -> EngineConfig {
    EngineConfig {
        flip_workers: 1,
        model_cache_capacity: 0,
        query_cache_capacity: 0,
        ..job_config(workload)
    }
}
