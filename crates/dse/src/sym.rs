//! Symbolic expressions and path conditions.
//!
//! Symbolic strings are expressions over the test inputs; symbolic
//! booleans arise from string comparisons and from regex operations.
//! A regex operation on a symbolic string records a [`RegexEvent`]
//! — the capturing-language membership of §3.2 — and its result and
//! capture accesses are referenced symbolically by event index.

use std::sync::Arc;

use regex_syntax_es6::Regex;

use crate::ast::StmtId;

/// A symbolic expression (string- or boolean-sorted).
#[derive(Debug, Clone, PartialEq)]
pub enum SymExpr {
    /// The `k`-th symbolic input string.
    Input(usize),
    /// A string literal.
    StrLit(String),
    /// String concatenation.
    Concat(Vec<SymExpr>),
    /// The value of capture group `index` of regex event `event`
    /// (string-sorted; meaningful when the capture is defined).
    Capture {
        /// Index into the trace's event list.
        event: usize,
        /// Capture group number (0 = whole match).
        index: usize,
    },
    /// A boolean literal.
    BoolLit(bool),
    /// Strict string equality.
    StrEq(Box<SymExpr>, Box<SymExpr>),
    /// Logical negation.
    Not(Box<SymExpr>),
    /// Conjunction.
    And(Box<SymExpr>, Box<SymExpr>),
    /// Disjunction.
    Or(Box<SymExpr>, Box<SymExpr>),
    /// Whether regex event `event` matched (boolean-sorted).
    TestResult {
        /// Index into the trace's event list.
        event: usize,
    },
    /// Whether capture `index` of event `event` is defined.
    CaptureDefined {
        /// Index into the trace's event list.
        event: usize,
        /// Capture group number.
        index: usize,
    },
}

impl SymExpr {
    /// True for string-sorted expressions.
    pub fn is_string(&self) -> bool {
        matches!(
            self,
            SymExpr::Input(_) | SymExpr::StrLit(_) | SymExpr::Concat(_) | SymExpr::Capture { .. }
        )
    }

    /// Builds a concatenation, flattening nested ones.
    pub fn concat(parts: Vec<SymExpr>) -> SymExpr {
        let mut flat = Vec::with_capacity(parts.len());
        for p in parts {
            match p {
                SymExpr::Concat(inner) => flat.extend(inner),
                other => flat.push(other),
            }
        }
        if flat.len() == 1 {
            flat.pop().expect("one item")
        } else {
            SymExpr::Concat(flat)
        }
    }

    /// The regex events referenced by this expression.
    pub fn referenced_events(&self, out: &mut Vec<usize>) {
        match self {
            SymExpr::Capture { event, .. }
            | SymExpr::TestResult { event }
            | SymExpr::CaptureDefined { event, .. } => out.push(*event),
            SymExpr::Concat(items) => {
                for item in items {
                    item.referenced_events(out);
                }
            }
            SymExpr::StrEq(a, b) | SymExpr::And(a, b) | SymExpr::Or(a, b) => {
                a.referenced_events(out);
                b.referenced_events(out);
            }
            SymExpr::Not(inner) => inner.referenced_events(out),
            _ => {}
        }
    }
}

/// A regex operation recorded during concolic execution: the paper's
/// `(w, C₀, …, Cₙ) ⊡ Lc(R)` constraint source (§3.2).
#[derive(Debug, Clone)]
pub struct RegexEvent {
    /// The regex that was applied (the program's literal, shared).
    pub regex: Arc<Regex>,
    /// The symbolic subject string.
    pub subject: SymExpr,
    /// Concrete outcome of this execution.
    pub matched: bool,
    /// Concrete capture values of this execution (empty if no match).
    pub concrete_captures: Vec<Option<String>>,
}

/// One clause of the path condition.
#[derive(Debug, Clone)]
pub struct Clause {
    /// The branch condition (boolean-sorted symbolic expression).
    pub cond: SymExpr,
    /// The direction taken concretely.
    pub taken: bool,
    /// The statement at which the branch occurred (CUPA bucket key).
    pub branch_id: StmtId,
}

/// The full result of one concolic execution.
#[derive(Debug, Clone, Default)]
pub struct Trace {
    /// Statements covered.
    pub coverage: std::collections::HashSet<StmtId>,
    /// Path condition clauses in execution order.
    pub path: Vec<Clause>,
    /// Regex events (indexed by `SymExpr::{Capture, TestResult, …}`).
    pub events: Vec<RegexEvent>,
    /// Statements whose `assert` failed (bugs found).
    pub assertion_failures: Vec<StmtId>,
    /// Interpreter steps executed.
    pub steps: u64,
    /// Number of symbolic inputs consumed.
    pub inputs_used: usize,
    /// Concrete regex executions routed to the Pike-VM fast path.
    pub matcher_fast_path: u64,
    /// Concrete regex executions that ran on the backtracking engine.
    pub matcher_fallback: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn concat_flattens() {
        let e = SymExpr::concat(vec![
            SymExpr::StrLit("a".into()),
            SymExpr::Concat(vec![SymExpr::Input(0), SymExpr::StrLit("b".into())]),
        ]);
        match e {
            SymExpr::Concat(items) => assert_eq!(items.len(), 3),
            other => panic!("expected concat, got {other:?}"),
        }
    }

    #[test]
    fn referenced_events_found() {
        let e = SymExpr::StrEq(
            Box::new(SymExpr::Capture { event: 2, index: 1 }),
            Box::new(SymExpr::StrLit("x".into())),
        );
        let mut events = Vec::new();
        e.referenced_events(&mut events);
        assert_eq!(events, vec![2]);
    }

    #[test]
    fn sorts() {
        assert!(SymExpr::Input(0).is_string());
        assert!(!SymExpr::BoolLit(true).is_string());
    }
}
