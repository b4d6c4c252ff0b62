//! Metric names, units and the layer → end-to-end map, plus the result
//! line the benchmark prints last.

/// One metric definition.
#[derive(Debug, Clone, Copy)]
pub struct Def {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// `"lower"` or `"higher"`: which direction is better.
    pub better: &'static str,
    /// For per-layer metrics: which end-to-end metric it should move,
    /// on which workload.
    pub moves: &'static str,
}

const fn def(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    moves: &'static str,
) -> Def {
    Def {
        name,
        unit,
        better,
        moves,
    }
}

const LO: &str = "lower";
const HI: &str = "higher";

/// End-to-end metrics, reported by every untraced run.
pub const END_TO_END: &[Def] = &[
    def("setup_s", "s", LO, ""),
    def("jobs_per_s", "1/s", HI, ""),
    def("job_p50_ms", "ms", LO, ""),
    def("job_p90_ms", "ms", LO, ""),
    def("job_p99_ms", "ms", LO, ""),
    def("mean_coverage", "share", HI, ""),
    def("sat_share", "share", HI, ""),
    def("ok_share", "share", HI, ""),
    def("peak_rss_mb", "MiB", LO, ""),
];

const INTERP: &str = "job_p50_ms on dse-shared; little effect on dse-novel";
const MATCHER: &str = "job_p90_ms on dse-novel; no effect on serve-tcp";
const DENOMINATOR: &str = "denominator of the per-flip ratios";
const SOLVE: &str = "jobs_per_s on dse-shared";
const MODEL: &str = "job_p50_ms on dse-shared; jobs_per_s on dse-novel";
const CEGAR: &str = "jobs_per_s on dse-shared (replays) and dse-novel (refinements)";
const SEARCH: &str = "jobs_per_s and job_p90_ms on dse-novel; no effect on dse-shared";
const SCHED: &str = "jobs_per_s on dse-shared; job_p90_ms and job_p99_ms on dse-novel";
const SERVICE: &str = "job_p50_ms and job_p99_ms on serve-tcp; no effect in-process";

/// Per-layer metrics, reported by every traced run. Counts and times
/// marked `/job` are means over the jobs of the engine-observed loop;
/// `_us` metrics are means over the layer replay's calls.
pub const PER_LAYER: &[Def] = &[
    def("dse.parser.ms", "ms", LO, "setup_s on all workloads"),
    def("dse.interp.executions", "count/job", LO, INTERP),
    def("dse.interp.ms", "ms/job", LO, INTERP),
    def("matcher.fast_path", "count/job", HI, MATCHER),
    def("matcher.fallback", "count/job", LO, MATCHER),
    def("matcher.exec_us", "us", LO, MATCHER),
    def("dse.engine.traces", "count/job", LO, DENOMINATOR),
    def("dse.engine.flips", "count/job", LO, DENOMINATOR),
    def("dse.engine.flips_per_trace", "ratio", LO, DENOMINATOR),
    def("dse.solve.ms", "ms/job", LO, SOLVE),
    def("dse.solve.prefix_reuse_hits", "count/job", HI, SOLVE),
    def("core.model.hits", "count/job", HI, MODEL),
    def("core.model.misses", "count/job", LO, MODEL),
    def("core.model.hit_ratio", "share", HI, MODEL),
    def("core.model.build_us", "us", LO, MODEL),
    def("core.cegar.refinements", "count/job", LO, CEGAR),
    def("core.cegar.replays", "count/job", HI, CEGAR),
    def("core.cegar.replay_ratio", "share", HI, CEGAR),
    def("core.cegar.limit_hits", "count/job", LO, CEGAR),
    def("core.cegar.solve_us", "us", LO, CEGAR),
    def("strsolve.nodes", "count/job", LO, SEARCH),
    def("strsolve.nodes_per_flip", "ratio", LO, SEARCH),
    def("strsolve.length_prunes", "count/job", HI, SEARCH),
    def("strsolve.query_cache_hits", "count/job", HI, SEARCH),
    def("strsolve.solve_us", "us", LO, SEARCH),
    def("automata.states_built", "count/job", LO, SEARCH),
    def("automata.states_after_minimize", "count/job", LO, SEARCH),
    def("automata.dfa_cache_hits", "count/job", HI, SEARCH),
    def("automata.table_hit_ratio", "share", HI, SEARCH),
    def("automata.dfa_build_us", "us", LO, SEARCH),
    def(
        "regex-syntax-es6.parse_us",
        "us",
        LO,
        "setup_s on dse-novel",
    ),
    def("dse.sched.queue_wait_ms", "ms", LO, SCHED),
    def("dse.sched.utilization", "share", HI, SCHED),
    def("dse.sched.steals", "count", LO, SCHED),
    def("service.overhead_p50_ms", "ms", LO, SERVICE),
    def("service.overhead_p99_ms", "ms", LO, SERVICE),
    def("service.bytes_per_job", "bytes", LO, SERVICE),
    def("service.errors", "count", LO, SERVICE),
    def("service.refused", "count", LO, SERVICE),
    def(
        "trace.overhead_share",
        "share",
        LO,
        "tracing cost: untraced minus traced jobs_per_s, over untraced",
    ),
];

/// Whether `name` is a valid metric name: `[A-Za-z0-9_.-]+`, at most 64
/// characters, starting with a letter or digit.
pub fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// The outcome of one run: the output check and the metric values.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    /// No wrong output.
    pub correct: bool,
    /// Jobs (and replayed regexes) attempted.
    pub attempted: u64,
    /// Of those, wrong or missing.
    pub failed: u64,
    /// Metric values by name.
    pub values: Vec<(&'static str, f64)>,
    /// Extra human-readable lines (sample counts and the like).
    pub notes: Vec<String>,
    /// Most threads the benchmark itself ran at once.
    pub load_threads: usize,
    /// Most client connections open at once.
    pub connections: usize,
}

impl Outcome {
    /// Sets a metric value.
    pub fn set(&mut self, name: &'static str, value: f64) {
        let value = if value.is_finite() { value } else { 0.0 };
        match self.values.iter_mut().find(|(n, _)| *n == name) {
            Some(slot) => slot.1 = value,
            None => self.values.push((name, value)),
        }
    }

    /// A metric value (`None` if never set).
    pub fn get(&self, name: &str) -> Option<f64> {
        self.values
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, v)| *v)
    }

    /// The definitions a run of this kind must report.
    pub fn defs(trace: bool) -> &'static [Def] {
        if trace {
            PER_LAYER
        } else {
            END_TO_END
        }
    }

    /// The human-readable table: one line per metric with its unit (and,
    /// for per-layer metrics, what it should move), then the notes.
    pub fn table(&self, trace: bool) -> String {
        let mut out = String::new();
        for d in Outcome::defs(trace) {
            let value = self.get(d.name).unwrap_or(f64::NAN);
            out.push_str(&format!("{:32} {:>16.6} {:10}", d.name, value, d.unit));
            if !d.moves.is_empty() {
                out.push_str(&format!("  -> {}", d.moves));
            }
            out.push('\n');
        }
        for note in &self.notes {
            out.push_str(&format!("# {note}\n"));
        }
        out
    }

    /// The one-line JSON result: exactly the metrics of `defs(trace)`.
    ///
    /// # Panics
    ///
    /// Panics if a required metric was never set (a benchmark bug).
    pub fn json(&self, trace: bool) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct,
            self.attempted.max(1),
            self.failed
        );
        for (i, d) in Outcome::defs(trace).iter().enumerate() {
            let value = self
                .get(d.name)
                .unwrap_or_else(|| panic!("metric {} was not measured", d.name));
            if i > 0 {
                out.push_str(", ");
            }
            out.push_str(&format!(
                "\"{}\": {{\"value\": {value:?}, \"unit\": \"{}\"}}",
                d.name, d.unit
            ));
        }
        out.push_str("}}");
        out
    }
}
