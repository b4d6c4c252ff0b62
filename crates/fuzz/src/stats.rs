//! Run statistics: per-feature generation histogram, verdict counts,
//! and the Unknown rate bucketed by support level — the numbers that
//! make feature-space coverage *measurable* in CI rather than asserted.

use std::fmt::Write as _;
use std::hash::Hasher;

use automata::FxHasher;

use expose_core::SupportLevel;
use regex_syntax_es6::features::FeatureSet;

use crate::check::CaseOutcome;

/// Aggregated statistics over a fuzz run. Deterministic: equal case
/// streams produce equal stats (fixed-order arrays, no map iteration).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FuzzStats {
    /// Cases run.
    pub cases: u64,
    /// Cases whose regex parsed (feature rows only count these).
    pub parsed: u64,
    /// Per-feature counts, in [`FeatureSet::rows`] order (19 buckets).
    pub feature_counts: [u64; 19],
    /// Solver verdict counts: `[sat, unsat, unknown]`.
    pub solver_verdicts: [u64; 3],
    /// CEGAR verdict counts: `[sat, unsat, unknown]`.
    pub cegar_verdicts: [u64; 3],
    /// CEGAR Unknowns bucketed by required support level:
    /// `[Modeling, Captures]`.
    pub unknown_by_support: [u64; 2],
    /// Cases per support level: `[Modeling, Captures]`.
    pub cases_by_support: [u64; 2],
    /// Oracle calls abandoned on the step budget.
    pub oracle_skips: u64,
    /// Words compared in the matcher-vs-DFA layer.
    pub dfa_words_checked: u64,
    /// Matcher-vs-DFA layers abandoned on the subset-construction state
    /// cap (those cases remain covered by the engine-vs-engine layer).
    pub dfa_skips: u64,
    /// Cases routed to the Pike-VM fast path.
    pub engine_fast_cases: u64,
    /// Cases routed to the backtracking fallback.
    pub engine_fallback_cases: u64,
    /// Words compared in the engine-vs-engine layer.
    pub engine_words_checked: u64,
    /// Per-feature counts among fast-path cases, in [`FeatureSet::rows`]
    /// order — shows which Table 5 buckets the Pike VM actually covers.
    pub fast_path_feature_counts: [u64; 19],
    /// Incremental-vs-scratch comparisons performed (`--incremental`).
    pub incremental_checks: u64,
    /// Search nodes of every plain solve and CEGAR iteration.
    pub solver_nodes: u64,
    /// Each case's [`CaseOutcome::search_fold`] folded in case order:
    /// two runs over the same seeds agree on it exactly when every case
    /// reached the same verdicts and models with the same node counts.
    pub search_digest: u64,
    /// Cross-layer disagreements.
    pub disagreements: u64,
}

fn verdict_slot(label: &str) -> Option<usize> {
    match label {
        "sat" => Some(0),
        "unsat" => Some(1),
        "unknown" => Some(2),
        _ => None,
    }
}

fn support_slot(level: SupportLevel) -> usize {
    match level {
        SupportLevel::Captures | SupportLevel::Refinement => 1,
        _ => 0,
    }
}

impl FuzzStats {
    /// Folds one case outcome in.
    pub fn absorb(&mut self, outcome: &CaseOutcome) {
        self.cases += 1;
        if let Some(features) = &outcome.features {
            self.parsed += 1;
            for (i, (_, present)) in features.rows().iter().enumerate() {
                if *present {
                    self.feature_counts[i] += 1;
                    if outcome.engine_fast == Some(true) {
                        self.fast_path_feature_counts[i] += 1;
                    }
                }
            }
        }
        match outcome.engine_fast {
            Some(true) => self.engine_fast_cases += 1,
            Some(false) => self.engine_fallback_cases += 1,
            None => {}
        }
        if let Some(slot) = verdict_slot(outcome.solver_verdict) {
            self.solver_verdicts[slot] += 1;
        }
        if let Some(slot) = verdict_slot(outcome.cegar_verdict) {
            self.cegar_verdicts[slot] += 1;
        }
        if let Some(level) = outcome.support {
            let slot = support_slot(level);
            self.cases_by_support[slot] += 1;
            if outcome.cegar_verdict == "unknown" {
                self.unknown_by_support[slot] += 1;
            }
        }
        self.oracle_skips += outcome.oracle_skips;
        self.dfa_words_checked += outcome.dfa_words_checked;
        self.dfa_skips += outcome.dfa_skips;
        self.engine_words_checked += outcome.engine_words_checked;
        self.incremental_checks += outcome.incremental_checks;
        self.solver_nodes += outcome.solver_nodes;
        let mut digest = FxHasher::default();
        digest.write_u64(self.search_digest);
        digest.write_u64(outcome.search_fold);
        self.search_digest = digest.finish();
        if outcome.disagreement.is_some() {
            self.disagreements += 1;
        }
    }

    /// Overall CEGAR Unknown rate over parsed cases, in `[0, 1]`.
    pub fn unknown_rate(&self) -> f64 {
        let unknowns: u64 = self.unknown_by_support.iter().sum();
        unknowns as f64 / (self.parsed.max(1)) as f64
    }

    /// True when every Table 5 feature bucket was generated at least
    /// once — the coverage property the CI smoke job gates on.
    pub fn covers_all_features(&self) -> bool {
        self.feature_counts.iter().all(|&n| n > 0)
    }

    /// Names of feature buckets with zero hits.
    pub fn uncovered_features(&self) -> Vec<&'static str> {
        FeatureSet::default()
            .rows()
            .iter()
            .zip(self.feature_counts)
            .filter(|(_, n)| *n == 0)
            .map(|((name, _), _)| *name)
            .collect()
    }

    /// The plain-text stats table (`--stats`).
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "cases: {} ({} parsed)", self.cases, self.parsed);
        let _ = writeln!(
            out,
            "solver verdicts: sat {} / unsat {} / unknown {}",
            self.solver_verdicts[0], self.solver_verdicts[1], self.solver_verdicts[2]
        );
        let _ = writeln!(
            out,
            "cegar verdicts:  sat {} / unsat {} / unknown {}",
            self.cegar_verdicts[0], self.cegar_verdicts[1], self.cegar_verdicts[2]
        );
        let _ = writeln!(
            out,
            "unknown rate: {:.1}% (modeling {}/{}, captures {}/{})",
            100.0 * self.unknown_rate(),
            self.unknown_by_support[0],
            self.cases_by_support[0],
            self.unknown_by_support[1],
            self.cases_by_support[1]
        );
        let _ = writeln!(
            out,
            "oracle skips: {}, dfa words checked: {} ({} state-cap skips)",
            self.oracle_skips, self.dfa_words_checked, self.dfa_skips
        );
        let _ = writeln!(
            out,
            "engine routing: {} fast path / {} fallback, {} words cross-checked",
            self.engine_fast_cases, self.engine_fallback_cases, self.engine_words_checked
        );
        if self.incremental_checks > 0 {
            let _ = writeln!(out, "incremental checks: {}", self.incremental_checks);
        }
        let _ = writeln!(
            out,
            "search effort: {} solver nodes, search digest {:016x}",
            self.solver_nodes, self.search_digest
        );
        let _ = writeln!(out, "feature histogram (generated / on fast path):");
        for (((name, _), count), fast) in FeatureSet::default()
            .rows()
            .iter()
            .zip(self.feature_counts)
            .zip(self.fast_path_feature_counts)
        {
            let _ = writeln!(out, "  {name:<20} {count} / {fast}");
        }
        let _ = writeln!(out, "disagreements: {}", self.disagreements);
        out
    }

    /// The job-summary markdown (`--summary-md`).
    pub fn render_markdown(&self, title: &str) -> String {
        let mut md = String::new();
        let _ = writeln!(md, "### {title}");
        let _ = writeln!(
            md,
            "- **cases**: {} ({} parsed), **disagreements**: {}",
            self.cases, self.parsed, self.disagreements
        );
        let _ = writeln!(
            md,
            "- **verdicts** (solver → CEGAR): sat {} → {}, unsat {} → {}, unknown {} → {}",
            self.solver_verdicts[0],
            self.cegar_verdicts[0],
            self.solver_verdicts[1],
            self.cegar_verdicts[1],
            self.solver_verdicts[2],
            self.cegar_verdicts[2],
        );
        let _ = writeln!(
            md,
            "- **Unknown rate**: {:.1}% (modeling {}/{}, captures {}/{})",
            100.0 * self.unknown_rate(),
            self.unknown_by_support[0],
            self.cases_by_support[0],
            self.unknown_by_support[1],
            self.cases_by_support[1]
        );
        let _ = writeln!(
            md,
            "- **oracle skips**: {}, **dfa words checked**: {} ({} state-cap skips)",
            self.oracle_skips, self.dfa_words_checked, self.dfa_skips
        );
        let _ = writeln!(
            md,
            "- **engine routing**: {} fast path / {} fallback, {} words cross-checked",
            self.engine_fast_cases, self.engine_fallback_cases, self.engine_words_checked
        );
        if self.incremental_checks > 0 {
            let _ = writeln!(md, "- **incremental checks**: {}", self.incremental_checks);
        }
        let _ = writeln!(
            md,
            "- **search effort**: {} solver nodes, search digest `{:016x}`",
            self.solver_nodes, self.search_digest
        );
        let _ = writeln!(md);
        let _ = writeln!(md, "| Table 5 feature | generated | on fast path |");
        let _ = writeln!(md, "|---|---|---|");
        for (((name, _), count), fast) in FeatureSet::default()
            .rows()
            .iter()
            .zip(self.feature_counts)
            .zip(self.fast_path_feature_counts)
        {
            let _ = writeln!(md, "| {name} | {count} | {fast} |");
        }
        md
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::check::CaseOutcome;

    fn outcome_with(features: FeatureSet, cegar: &'static str) -> CaseOutcome {
        CaseOutcome {
            features: Some(features),
            support: Some(SupportLevel::Modeling),
            solver_verdict: "sat",
            cegar_verdict: cegar,
            oracle_skips: 1,
            dfa_words_checked: 2,
            dfa_skips: 0,
            engine_fast: Some(true),
            engine_words_checked: 3,
            incremental_checks: 0,
            solver_nodes: 5,
            search_fold: 0x5eed,
            disagreement: None,
        }
    }

    #[test]
    fn absorb_counts_features_and_verdicts() {
        let mut stats = FuzzStats::default();
        let features = FeatureSet {
            kleene_star: true,
            ..FeatureSet::default()
        };
        stats.absorb(&outcome_with(features, "unknown"));
        stats.absorb(&outcome_with(FeatureSet::default(), "sat"));
        assert_eq!(stats.cases, 2);
        assert_eq!(stats.feature_counts[4], 1); // Kleene* row
        assert_eq!(stats.solver_verdicts[0], 2);
        assert_eq!(stats.cegar_verdicts[2], 1);
        assert_eq!(stats.unknown_by_support[0], 1);
        assert!((stats.unknown_rate() - 0.5).abs() < 1e-9);
        assert!(!stats.covers_all_features());
        assert_eq!(stats.uncovered_features().len(), 18);
        assert_eq!(stats.oracle_skips, 2);
        assert_eq!(stats.dfa_words_checked, 4);
        assert_eq!(stats.solver_nodes, 10);
    }

    #[test]
    fn search_digest_depends_on_case_order() {
        let fold = |first: u64, second: u64| {
            let mut stats = FuzzStats::default();
            for search_fold in [first, second] {
                stats.absorb(&CaseOutcome {
                    search_fold,
                    ..outcome_with(FeatureSet::default(), "sat")
                });
            }
            stats.search_digest
        };
        assert_eq!(fold(1, 2), fold(1, 2));
        assert_ne!(fold(1, 2), fold(2, 1));
        assert_ne!(fold(1, 2), fold(1, 3));
    }

    #[test]
    fn renders_mention_every_feature() {
        let stats = FuzzStats::default();
        let text = stats.render_text();
        let md = stats.render_markdown("Fuzz");
        for (name, _) in FeatureSet::default().rows() {
            assert!(text.contains(name), "text missing {name}");
            assert!(md.contains(name), "markdown missing {name}");
        }
    }
}
