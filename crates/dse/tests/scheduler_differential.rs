//! Scheduler determinism: the sharded scheduler must
//! produce the same results as serial execution — for every worker
//! count, under job-submission-order shuffles, and with shared vs
//! fresh caches — over a seeded corpus of generated DSE programs.
//!
//! "Same results" means the deterministic projection of a report:
//! coverage, executions, generated tests, bugs, and the per-query
//! verdict trail. Wall-clock, which shard ran a job, and cache
//! hit/miss splits are scheduling-dependent by design and excluded
//! (the same convention the engine's own `flip_workers` tests use).

use std::collections::HashMap;

use expose_dse::parser::parse_program;
use expose_dse::sched::{Scheduler, SchedulerConfig};
use expose_dse::{run_dse, BatchOptions, CacheSet, EngineConfig, Harness, Job, Report};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// The scheduling-invariant projection of a report.
#[derive(Debug, Clone, PartialEq)]
struct Deterministic {
    coverage: Vec<u32>,
    stmt_count: u32,
    executions: usize,
    tests_generated: usize,
    bugs: Vec<(u32, Vec<String>)>,
    verdicts: Vec<(bool, usize, bool)>,
}

fn project(report: &Report) -> Deterministic {
    let mut coverage: Vec<u32> = report.coverage.iter().copied().collect();
    coverage.sort_unstable();
    Deterministic {
        coverage,
        stmt_count: report.stmt_count,
        executions: report.executions,
        tests_generated: report.tests_generated,
        bugs: report.bugs.clone(),
        verdicts: report
            .queries
            .iter()
            .map(|q| (q.sat, q.refinements, q.limit_hit))
            .collect(),
    }
}

/// A seeded corpus of jobs: generated Table 7 programs on a small
/// engine budget (the suite runs in debug CI).
fn corpus_jobs(programs: usize, seed: u64) -> Vec<Job> {
    corpus::generate_dse_programs(programs, seed)
        .into_iter()
        .map(|p| Job {
            name: p.name.clone(),
            program: parse_program(&p.source)
                .unwrap_or_else(|e| panic!("{} must parse: {e}", p.name)),
            harness: Harness::strings(&p.entry, p.arity),
            config: EngineConfig {
                max_executions: 6,
                max_steps: 20_000,
                ..EngineConfig::default()
            },
        })
        .collect()
}

/// The serial oracle: each job alone, fresh caches.
fn serial_reference(jobs: &[Job]) -> Vec<Deterministic> {
    jobs.iter()
        .map(|job| project(&run_dse(&job.program, &job.harness, &job.config)))
        .collect()
}

#[test]
fn identical_reports_for_worker_counts_1_2_8() {
    let jobs = corpus_jobs(8, 0x5eed1);
    let reference = serial_reference(&jobs);
    for workers in [1, 2, 8] {
        let reports = BatchOptions::new().workers(workers).run(jobs.clone());
        let projected: Vec<Deterministic> = reports.iter().map(project).collect();
        assert_eq!(
            projected, reference,
            "workers={workers} diverged from the serial oracle"
        );
    }
}

#[test]
fn submission_order_shuffles_do_not_change_results() {
    let jobs = corpus_jobs(8, 0x5eed2);
    let mut reference: HashMap<String, Deterministic> = jobs
        .iter()
        .zip(serial_reference(&jobs))
        .map(|(job, projected)| (job.name.clone(), projected))
        .collect();

    let mut rng = StdRng::seed_from_u64(0xf00d);
    for round in 0..3 {
        // Fisher–Yates over a fresh copy, so each round submits the
        // same jobs in a different order.
        let mut shuffled = jobs.clone();
        for i in (1..shuffled.len()).rev() {
            let j = rng.random_range(0..=i);
            shuffled.swap(i, j);
        }
        let scheduler = Scheduler::start(
            SchedulerConfig {
                workers: 4,
                ..SchedulerConfig::default()
            },
            CacheSet::session(512, 2048, 512),
        );
        for job in shuffled {
            scheduler.submit(job);
        }
        scheduler.close();
        let mut seen = 0;
        while let Some(completion) = scheduler.next_ordered() {
            let report = completion.outcome.expect("job ran");
            let expected = reference
                .get(&completion.name)
                .unwrap_or_else(|| panic!("unknown job {}", completion.name));
            assert_eq!(
                &project(&report),
                expected,
                "round {round}: job {} diverged under shuffle",
                completion.name
            );
            seen += 1;
        }
        assert_eq!(seen, jobs.len(), "round {round}: missing completions");
    }

    // Guard against a vacuous reference (e.g. all-empty projections).
    assert!(
        reference.values().any(|d| !d.verdicts.is_empty()),
        "corpus produced no solver queries at all"
    );
    reference.clear();
}

#[test]
fn shared_and_fresh_caches_agree() {
    let jobs = corpus_jobs(8, 0x5eed3);
    let reference = serial_reference(&jobs); // fresh caches per job

    // One shared session cache set for the whole batch, exercised
    // twice so the second pass runs against fully warm caches.
    let caches = CacheSet::session(512, 2048, 512);
    let batch = BatchOptions::new().workers(4).caches(caches.clone());
    let cold = batch.run(jobs.clone());
    let warm = batch.run(jobs.clone());
    let cold: Vec<Deterministic> = cold.iter().map(project).collect();
    let warm: Vec<Deterministic> = warm.iter().map(project).collect();
    assert_eq!(cold, reference, "shared caches changed results (cold)");
    assert_eq!(warm, reference, "shared caches changed results (warm)");

    // The warm pass must actually have hit the shared layers.
    assert!(caches.verdicts.hits() > 0, "the verdict cache never hit");
    let tables = caches.dfa.as_ref().expect("session tables");
    assert!(tables.hits() > 0, "DFA tables never hit");
}

#[test]
fn backpressure_drain_interleaving_preserves_results() {
    let jobs = corpus_jobs(6, 0x5eed4);
    let reference = serial_reference(&jobs);
    let scheduler = Scheduler::start(
        SchedulerConfig {
            workers: 2,
            max_inflight: 2,
        },
        CacheSet::session(512, 2048, 512),
    );
    let projected = std::thread::scope(|scope| {
        let drainer = scope.spawn(|| {
            let mut out = Vec::new();
            while let Some(completion) = scheduler.next_ordered() {
                out.push(project(&completion.outcome.expect("job ran")));
            }
            out
        });
        for job in jobs.clone() {
            scheduler.submit(job); // blocks at 2 in flight
        }
        scheduler.close();
        drainer.join().expect("drainer")
    });
    assert_eq!(projected, reference);
}
