//! Self-tests of the benchmark. Run with
//! `cargo test --release --manifest-path perfbench/Cargo.toml`.

use expose_service::json::{self, Value};
use perfbench::check::reference_digests;
use perfbench::gen::{keep_novel, novel_programs, novel_regexes, shared_pool};
use perfbench::inproc::parse_all;
use perfbench::metrics::{valid_name, END_TO_END, PER_LAYER};
use perfbench::run::run;
use perfbench::{nproc, reference_config, LoadGauge, RunOptions, Scale, Workload};

#[test]
fn same_seed_gives_identical_programs_and_digests() {
    assert_eq!(shared_pool(7, 40), shared_pool(7, 40));
    assert_ne!(shared_pool(7, 40), shared_pool(8, 40));
    let (a, dropped_a) = novel_regexes(7, 25);
    let (b, dropped_b) = novel_regexes(7, 25);
    assert_eq!((&a, dropped_a), (&b, dropped_b));
    assert_ne!(a, novel_regexes(8, 25).0);
    assert!(a.iter().all(keep_novel));

    for programs in [shared_pool(7, 8), novel_programs(&a[..8])] {
        let parsed = parse_all(&programs);
        let inputs: Vec<_> = parsed.iter().map(|p| (&p.program, &p.harness)).collect();
        let config = reference_config(Workload::DseShared);
        let first = reference_digests(&inputs, &config, 2);
        let second = reference_digests(&inputs, &config, 1);
        assert_eq!(first, second);
        assert!(first.iter().all(Result::is_ok));
    }
}

#[test]
fn metric_names_are_valid_and_match_the_benchmark_file() {
    for d in END_TO_END.iter().chain(PER_LAYER) {
        assert!(valid_name(d.name), "bad metric name {:?}", d.name);
        assert!(matches!(d.better, "lower" | "higher"), "{}", d.name);
    }
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json next to the benchmark");
    let file = json::parse(&text).expect("BENCHMARK.json parses");
    for (key, defs) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
        let Some(Value::Arr(listed)) = file.get(key) else {
            panic!("BENCHMARK.json lacks {key}");
        };
        let listed: Vec<(&str, &str, &str)> = listed
            .iter()
            .map(|m| {
                let field = |k: &str| m.get(k).and_then(Value::as_str).unwrap_or("");
                (field("name"), field("unit"), field("better"))
            })
            .collect();
        let defined: Vec<(&str, &str, &str)> =
            defs.iter().map(|d| (d.name, d.unit, d.better)).collect();
        assert_eq!(
            listed, defined,
            "{key} differs from the benchmark's definitions"
        );
    }
    let Some(Value::Arr(workloads)) = file.get("workloads") else {
        panic!("BENCHMARK.json lacks workloads");
    };
    let names: Vec<&str> = workloads
        .iter()
        .filter_map(|w| w.get("name").and_then(Value::as_str))
        .collect();
    let expected: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    assert_eq!(names, expected);
}

#[test]
fn load_gauge_counts_threads_running_at_once() {
    let gauge = LoadGauge::default();
    let barrier = std::sync::Barrier::new(3);
    std::thread::scope(|scope| {
        for _ in 0..3 {
            scope.spawn(|| {
                let _load = gauge.enter();
                // All three hold their guard here at the same time.
                barrier.wait();
            });
        }
    });
    assert_eq!(gauge.peak(), 3);
    // Sequential entries never overlap.
    let sequential = LoadGauge::default();
    for _ in 0..3 {
        drop(sequential.enter());
    }
    assert_eq!(sequential.peak(), 1);
}

fn tiny(workload: Workload, trace: bool) -> RunOptions {
    RunOptions {
        workload,
        seed: 3,
        seconds: 1.0,
        trace,
        scale: Scale::tiny(),
        spans_out: None,
    }
}

#[test]
fn tiny_runs_pass_the_output_check_within_nproc() {
    for workload in Workload::ALL {
        for trace in [false, true] {
            let outcome = run(&tiny(workload, trace));
            let what = format!("{} trace={trace}", workload.name());
            assert!(outcome.correct, "{what}: {outcome:?}");
            assert_eq!(outcome.failed, 0, "{what}");
            assert!(outcome.attempted > 0, "{what}");
            // Every metric of the run's kind is present.
            let json = outcome.json(trace);
            let parsed = json::parse(&json).expect("result line is JSON");
            assert_eq!(parsed.get("correct").and_then(Value::as_bool), Some(true));
            assert!(
                outcome.load_threads >= 1 && outcome.load_threads <= nproc(),
                "{what}"
            );
            assert!(outcome.connections <= nproc(), "{what}");
            if workload == Workload::ServeTcp {
                assert!(outcome.connections >= 1, "{what}");
            }
        }
    }
}
