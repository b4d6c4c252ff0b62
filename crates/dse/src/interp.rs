//! The concolic interpreter.
//!
//! Executes a mini-JS program with concrete inputs while building the
//! symbolic trace: branch clauses on symbolic conditions, and
//! [`RegexEvent`]s for `test`/`exec`/`match`/`search`/`split`/`replace`
//! calls on symbolic strings (§3.2 of the paper). The
//! [`SupportLevel`] selects how much of the regex API is modeled —
//! the four configurations of Table 7.
//!
//! An execution borrows the program: declared functions and regex
//! literals are shared, not copied. The concrete matchers live in a
//! [`MatcherMemo`] that a run loop keeps across its executions, so each
//! literal is compiled once per run rather than once per call.

use std::collections::HashMap;
use std::marker::PhantomData;
use std::sync::Arc;

use es6_matcher::{EngineKind, RegExp};
use expose_core::SupportLevel;
use regex_syntax_es6::Regex;

use crate::ast::{BinOp, Expr, Function, Program, Stmt, Target, UnOp};
use crate::sym::{Clause, RegexEvent, SymExpr, Trace};
use crate::value::{Concolic, Value};

/// Limits and configuration for one execution.
#[derive(Debug, Clone)]
pub struct InterpConfig {
    /// Regex support level (Table 7 configurations).
    pub support: SupportLevel,
    /// Interpreter step budget (guards against symbolic-input-driven
    /// infinite loops).
    pub max_steps: u64,
}

impl Default for InterpConfig {
    fn default() -> InterpConfig {
        InterpConfig {
            support: SupportLevel::Refinement,
            max_steps: 200_000,
        }
    }
}

/// How the entry function's arguments are constructed.
#[derive(Debug, Clone)]
pub enum ArgSpec {
    /// One symbolic string.
    SymbolicString,
    /// An array of `n` symbolic strings.
    SymbolicStringArray(usize),
    /// A concrete value (string).
    ConcreteString(String),
}

/// The harness: which function to call and with what arguments.
///
/// Mirrors the paper's automated library harness (§7.3), which calls
/// exported methods with symbolic arguments.
#[derive(Debug, Clone)]
pub struct Harness {
    /// Entry function name; `None` runs only the top level.
    pub entry: Option<String>,
    /// Argument specs for the entry function.
    pub args: Vec<ArgSpec>,
}

impl Harness {
    /// Calls `name` with `n` symbolic strings.
    pub fn strings(name: &str, n: usize) -> Harness {
        Harness {
            entry: Some(name.to_string()),
            args: vec![ArgSpec::SymbolicString; n],
        }
    }

    /// Calls `name` with one array of `n` symbolic strings.
    pub fn string_array(name: &str, n: usize) -> Harness {
        Harness {
            entry: Some(name.to_string()),
            args: vec![ArgSpec::SymbolicStringArray(n)],
        }
    }

    /// Number of symbolic inputs this harness consumes.
    pub fn input_count(&self) -> usize {
        self.args
            .iter()
            .map(|a| match a {
                ArgSpec::SymbolicString => 1,
                ArgSpec::SymbolicStringArray(n) => *n,
                ArgSpec::ConcreteString(_) => 0,
            })
            .sum()
    }
}

/// The compiled concrete matchers of one run: one [`RegExp`] per regex
/// literal of the programs it executes, built on first use and reused by
/// every later execution that borrows the same memo.
///
/// Entries are keyed by the literal's address, which stays unique
/// because the memo cannot outlive the programs (`'p`) whose literals
/// it has seen. Keep one memo per run and drop it with the run: the
/// shared [`Program`] itself never holds compiled matchers, so a
/// resident pool of programs does not keep every compiled pattern
/// alive.
#[derive(Debug, Default)]
pub struct MatcherMemo<'p> {
    matchers: HashMap<(*const Regex, bool), RegExp>,
    programs: PhantomData<&'p Program>,
}

impl<'p> MatcherMemo<'p> {
    /// The matcher for `literal`. With `stateless`, it runs as if the
    /// `g` and `y` flags were clear (the in-trace oracle of `test` and
    /// `exec`); patterns without those flags share one entry for both.
    ///
    /// The mini language does not model `lastIndex`, so every matcher
    /// is handed out with `lastIndex` at 0.
    fn get(&mut self, literal: &Arc<Regex>, stateless: bool) -> &mut RegExp {
        let stateless = stateless && literal.flags.is_stateful();
        let re = self
            .matchers
            .entry((Arc::as_ptr(literal), stateless))
            .or_insert_with(|| {
                if stateless {
                    let mut oracle = Regex::clone(literal);
                    oracle.flags.global = false;
                    oracle.flags.sticky = false;
                    RegExp::from_regex(oracle)
                } else {
                    RegExp::from_shared(Arc::clone(literal))
                }
            });
        re.set_last_index(0);
        re
    }
}

/// Executes `program` under `harness` with the given concrete values
/// for the symbolic inputs (missing inputs default to `""`).
///
/// Compiles every regex literal it applies afresh; a run that executes
/// the same program repeatedly should call [`execute_with`] with one
/// [`MatcherMemo`] instead. Both give identical traces.
pub fn execute(
    program: &Program,
    harness: &Harness,
    inputs: &[String],
    config: &InterpConfig,
) -> Trace {
    execute_with(
        program,
        harness,
        inputs,
        config,
        &mut MatcherMemo::default(),
    )
}

/// [`execute`] with the run's compiled matchers: literals already in
/// `matchers` are not compiled again, and new ones are added to it.
pub fn execute_with<'p>(
    program: &'p Program,
    harness: &Harness,
    inputs: &[String],
    config: &InterpConfig,
    matchers: &mut MatcherMemo<'p>,
) -> Trace {
    let mut interp = Interp {
        config: config.clone(),
        globals: HashMap::new(),
        functions: HashMap::new(),
        matchers,
        trace: Trace::default(),
        inputs,
        next_input: 0,
        steps_left: config.max_steps,
        aborted: false,
    };
    // Top level: define functions, run statements.
    let mut scope = new_scope();
    for stmt in &program.body {
        if interp.exec_stmt(stmt, &mut scope).is_break() {
            break;
        }
    }
    // Harness call.
    if let Some(entry) = &harness.entry {
        if let Some(&func) = interp.functions.get(entry.as_str()) {
            let mut args = Vec::new();
            for spec in &harness.args {
                args.push(interp.make_arg(spec));
            }
            interp.call_function(func, args);
        }
    }
    interp.trace.inputs_used = interp.next_input;
    interp.trace.steps = config.max_steps - interp.steps_left;
    interp.trace
}

type Scope = Vec<HashMap<String, Concolic>>;

fn new_scope() -> Scope {
    vec![HashMap::new()]
}

trait ScopeExt {
    fn lookup(&self, name: &str) -> Option<Concolic>;
    fn assign(&mut self, name: &str, value: Concolic) -> bool;
    fn declare(&mut self, name: &str, value: Concolic);
}

impl ScopeExt for Scope {
    fn lookup(&self, name: &str) -> Option<Concolic> {
        self.iter().rev().find_map(|frame| frame.get(name).cloned())
    }

    fn assign(&mut self, name: &str, value: Concolic) -> bool {
        for frame in self.iter_mut().rev() {
            if let Some(slot) = frame.get_mut(name) {
                *slot = value;
                return true;
            }
        }
        false
    }

    fn declare(&mut self, name: &str, value: Concolic) {
        self.last_mut()
            .expect("nonempty scope")
            .insert(name.to_string(), value);
    }
}

enum Control {
    Normal,
    Return(Concolic),
    Abort,
}

impl Control {
    fn is_break(&self) -> bool {
        !matches!(self, Control::Normal)
    }
}

struct Interp<'p, 'm> {
    config: InterpConfig,
    globals: HashMap<String, Concolic>,
    /// Declared functions, borrowed from the program.
    functions: HashMap<&'p str, &'p Function>,
    matchers: &'m mut MatcherMemo<'p>,
    trace: Trace,
    inputs: &'m [String],
    next_input: usize,
    steps_left: u64,
    aborted: bool,
}

impl<'p> Interp<'p, '_> {
    fn make_arg(&mut self, spec: &ArgSpec) -> Concolic {
        match spec {
            ArgSpec::SymbolicString => self.fresh_input(),
            ArgSpec::SymbolicStringArray(n) => {
                let items = (0..*n).map(|_| self.fresh_input()).collect();
                Concolic::concrete(Value::Array(items))
            }
            ArgSpec::ConcreteString(s) => Concolic::concrete(Value::Str(s.clone())),
        }
    }

    fn fresh_input(&mut self) -> Concolic {
        let k = self.next_input;
        self.next_input += 1;
        let concrete = self.inputs.get(k).cloned().unwrap_or_default();
        Concolic::symbolic(Value::Str(concrete), SymExpr::Input(k))
    }

    /// Records which match engine a concrete regex execution used (the
    /// routing is decided per pattern by `es6_matcher::select`).
    fn note_engine(&mut self, kind: EngineKind) {
        match kind {
            EngineKind::PikeVm => self.trace.matcher_fast_path += 1,
            EngineKind::Backtrack => self.trace.matcher_fallback += 1,
        }
    }

    fn tick(&mut self) -> bool {
        if self.steps_left == 0 || self.aborted {
            self.aborted = true;
            return false;
        }
        self.steps_left -= 1;
        true
    }

    fn call_function(&mut self, func: &'p Function, args: Vec<Concolic>) -> Concolic {
        let mut scope = new_scope();
        for (i, param) in func.params.iter().enumerate() {
            let value = args
                .get(i)
                .cloned()
                .unwrap_or_else(|| Concolic::concrete(Value::Undefined));
            scope.declare(param, value);
        }
        for stmt in &func.body {
            match self.exec_stmt(stmt, &mut scope) {
                Control::Return(v) => return v,
                Control::Abort => break,
                Control::Normal => {}
            }
        }
        Concolic::concrete(Value::Undefined)
    }

    fn exec_stmt(&mut self, stmt: &'p Stmt, scope: &mut Scope) -> Control {
        if !self.tick() {
            return Control::Abort;
        }
        self.trace.coverage.insert(stmt.id());
        match stmt {
            Stmt::Let { name, value, .. } => {
                let v = self.eval(value, scope);
                scope.declare(name, v);
                Control::Normal
            }
            Stmt::Assign { target, value, .. } => {
                let v = self.eval(value, scope);
                match target {
                    Target::Var(name) => {
                        if !scope.assign(name, v.clone()) {
                            self.globals.insert(name.clone(), v);
                        }
                    }
                    Target::Index(base, index) => {
                        let idx = self.eval(index, scope);
                        if let (Expr::Var(name), Value::Num(n)) = (base.as_ref(), &idx.value) {
                            let i = *n as usize;
                            if let Some(mut arr) = scope.lookup(name) {
                                if let Value::Array(items) = &mut arr.value {
                                    if i < items.len() {
                                        items[i] = v;
                                    } else {
                                        while items.len() < i {
                                            items.push(Concolic::concrete(Value::Undefined));
                                        }
                                        items.push(v);
                                    }
                                }
                                scope.assign(name, arr);
                            }
                        }
                    }
                }
                Control::Normal
            }
            Stmt::If {
                id,
                cond,
                then_body,
                else_body,
            } => {
                let c = self.eval(cond, scope);
                let taken = c.value.truthy();
                self.record_branch(*id, &c, taken);
                let body = if taken { then_body } else { else_body };
                scope.push(HashMap::new());
                let mut result = Control::Normal;
                for s in body {
                    let r = self.exec_stmt(s, scope);
                    if r.is_break() {
                        result = r;
                        break;
                    }
                }
                scope.pop();
                result
            }
            Stmt::While { id, cond, body } => {
                loop {
                    if !self.tick() {
                        return Control::Abort;
                    }
                    let c = self.eval(cond, scope);
                    let taken = c.value.truthy();
                    self.record_branch(*id, &c, taken);
                    if !taken {
                        break;
                    }
                    scope.push(HashMap::new());
                    let mut broke = None;
                    for s in body {
                        let r = self.exec_stmt(s, scope);
                        if r.is_break() {
                            broke = Some(r);
                            break;
                        }
                    }
                    scope.pop();
                    if let Some(r) = broke {
                        return r;
                    }
                }
                Control::Normal
            }
            Stmt::FunctionDecl { func, .. } => {
                self.functions.insert(&func.name, func);
                Control::Normal
            }
            Stmt::Return { value, .. } => {
                let v = value
                    .as_ref()
                    .map(|e| self.eval(e, scope))
                    .unwrap_or_else(|| Concolic::concrete(Value::Undefined));
                Control::Return(v)
            }
            Stmt::Assert { id, cond } => {
                let c = self.eval(cond, scope);
                let ok = c.value.truthy();
                self.record_branch(*id, &c, ok);
                if !ok {
                    self.trace.assertion_failures.push(*id);
                    return Control::Abort;
                }
                Control::Normal
            }
            Stmt::ExprStmt { expr, .. } => {
                self.eval(expr, scope);
                Control::Normal
            }
        }
    }

    /// Records a path-condition clause when the condition is symbolic.
    fn record_branch(&mut self, id: u32, cond: &Concolic, taken: bool) {
        if let Some(sym) = &cond.sym {
            self.trace.path.push(Clause {
                cond: sym.clone(),
                taken,
                branch_id: id,
            });
        }
    }

    fn eval(&mut self, expr: &'p Expr, scope: &mut Scope) -> Concolic {
        if !self.tick() {
            return Concolic::concrete(Value::Undefined);
        }
        match expr {
            Expr::Undefined => Concolic::concrete(Value::Undefined),
            Expr::Null => Concolic::concrete(Value::Null),
            Expr::Bool(b) => Concolic::concrete(Value::Bool(*b)),
            Expr::Num(n) => Concolic::concrete(Value::Num(*n)),
            Expr::Str(s) => Concolic::concrete(Value::Str(s.clone())),
            Expr::Regex(r) => Concolic::concrete(Value::RegExp(Arc::clone(r))),
            Expr::Array(items) => {
                let values = items.iter().map(|e| self.eval(e, scope)).collect();
                Concolic::concrete(Value::Array(values))
            }
            Expr::Var(name) => scope
                .lookup(name)
                .or_else(|| self.globals.get(name).cloned())
                .unwrap_or_else(|| Concolic::concrete(Value::Undefined)),
            Expr::Index(base, index) => {
                let b = self.eval(base, scope);
                let i = self.eval(index, scope);
                match (&b.value, &i.value) {
                    (Value::Array(items), Value::Num(n)) => items
                        .get(*n as usize)
                        .cloned()
                        .unwrap_or_else(|| Concolic::concrete(Value::Undefined)),
                    (Value::Str(s), Value::Num(n)) => {
                        let c = s.chars().nth(*n as usize);
                        Concolic::concrete(match c {
                            Some(c) => Value::Str(c.to_string()),
                            None => Value::Undefined,
                        })
                    }
                    _ => Concolic::concrete(Value::Undefined),
                }
            }
            Expr::Member(base, name) => {
                let b = self.eval(base, scope);
                match (name.as_str(), &b.value) {
                    ("length", Value::Str(s)) => {
                        Concolic::concrete(Value::Num(s.chars().count() as f64))
                    }
                    ("length", Value::Array(items)) => {
                        Concolic::concrete(Value::Num(items.len() as f64))
                    }
                    _ => Concolic::concrete(Value::Undefined),
                }
            }
            Expr::Unary(op, inner) => {
                let v = self.eval(inner, scope);
                self.eval_unary(*op, v)
            }
            Expr::Binary(op, lhs, rhs) => self.eval_binary(*op, lhs, rhs, scope),
            Expr::Call(name, args) => {
                let argv: Vec<Concolic> = args.iter().map(|a| self.eval(a, scope)).collect();
                match self.functions.get(name.as_str()) {
                    Some(&func) => self.call_function(func, argv),
                    None => Concolic::concrete(Value::Undefined),
                }
            }
            Expr::MethodCall(recv, name, args) => {
                let r = self.eval(recv, scope);
                let argv: Vec<Concolic> = args.iter().map(|a| self.eval(a, scope)).collect();
                self.eval_method(r, name, argv)
            }
        }
    }

    fn eval_unary(&mut self, op: UnOp, v: Concolic) -> Concolic {
        match op {
            UnOp::Not => {
                let result = !v.value.truthy();
                let sym = v.sym.map(|s| SymExpr::Not(Box::new(s)));
                Concolic {
                    value: Value::Bool(result),
                    sym,
                }
            }
            UnOp::Neg => match v.value {
                Value::Num(n) => Concolic::concrete(Value::Num(-n)),
                _ => Concolic::concrete(Value::Num(f64::NAN)),
            },
            UnOp::TypeOf => Concolic::concrete(Value::Str(v.value.type_of().into())),
        }
    }

    fn eval_binary(
        &mut self,
        op: BinOp,
        lhs: &'p Expr,
        rhs: &'p Expr,
        scope: &mut Scope,
    ) -> Concolic {
        // Short-circuit operators evaluate lazily.
        if matches!(op, BinOp::And | BinOp::Or) {
            let l = self.eval(lhs, scope);
            let lt = l.value.truthy();
            if (op == BinOp::And && !lt) || (op == BinOp::Or && lt) {
                return l;
            }
            let r = self.eval(rhs, scope);
            // Symbolic shadow combines both sides when available.
            let sym = match (&l.sym, &r.sym) {
                (Some(a), Some(b)) => Some(if op == BinOp::And {
                    SymExpr::And(Box::new(a.clone()), Box::new(b.clone()))
                } else {
                    SymExpr::Or(Box::new(a.clone()), Box::new(b.clone()))
                }),
                (None, Some(b)) => Some(b.clone()),
                _ => None,
            };
            return Concolic {
                value: r.value,
                sym,
            };
        }

        let l = self.eval(lhs, scope);
        let r = self.eval(rhs, scope);
        match op {
            BinOp::Add => match (&l.value, &r.value) {
                (Value::Num(a), Value::Num(b)) => Concolic::concrete(Value::Num(a + b)),
                _ => {
                    // String concatenation (JS coerces).
                    let result = format!("{}{}", l.value.to_display(), r.value.to_display());
                    let sym = match (string_sym(&l), string_sym(&r)) {
                        (Some(a), Some(b)) => Some(SymExpr::concat(vec![a, b])),
                        _ => None,
                    };
                    Concolic {
                        value: Value::Str(result),
                        sym,
                    }
                }
            },
            BinOp::Sub | BinOp::Mul | BinOp::Div | BinOp::Mod => {
                let (a, b) = (to_num(&l.value), to_num(&r.value));
                let n = match op {
                    BinOp::Sub => a - b,
                    BinOp::Mul => a * b,
                    BinOp::Div => a / b,
                    BinOp::Mod => a % b,
                    _ => unreachable!(),
                };
                Concolic::concrete(Value::Num(n))
            }
            BinOp::StrictEq | BinOp::StrictNe => {
                let eq = l.value.strict_eq(&r.value);
                let result = if op == BinOp::StrictEq { eq } else { !eq };
                let sym = self.equality_sym(&l, &r).map(|s| {
                    if op == BinOp::StrictEq {
                        s
                    } else {
                        SymExpr::Not(Box::new(s))
                    }
                });
                Concolic {
                    value: Value::Bool(result),
                    sym,
                }
            }
            BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge => {
                let result = match (&l.value, &r.value) {
                    (Value::Str(a), Value::Str(b)) => match op {
                        BinOp::Lt => a < b,
                        BinOp::Le => a <= b,
                        BinOp::Gt => a > b,
                        _ => a >= b,
                    },
                    _ => {
                        let (a, b) = (to_num(&l.value), to_num(&r.value));
                        match op {
                            BinOp::Lt => a < b,
                            BinOp::Le => a <= b,
                            BinOp::Gt => a > b,
                            _ => a >= b,
                        }
                    }
                };
                // Order comparisons are concretized (documented
                // restriction of the mini engine).
                Concolic::concrete(Value::Bool(result))
            }
            BinOp::And | BinOp::Or => unreachable!("handled above"),
        }
    }

    /// Symbolic equality between two concolic values, when expressible.
    fn equality_sym(&self, l: &Concolic, r: &Concolic) -> Option<SymExpr> {
        // Equality on capture-definedness: `x === undefined`.
        if let (Some(SymExpr::Capture { event, index }), Value::Undefined) = (&l.sym, &r.value) {
            return Some(SymExpr::Not(Box::new(SymExpr::CaptureDefined {
                event: *event,
                index: *index,
            })));
        }
        if let (Value::Undefined, Some(SymExpr::Capture { event, index })) = (&l.value, &r.sym) {
            return Some(SymExpr::Not(Box::new(SymExpr::CaptureDefined {
                event: *event,
                index: *index,
            })));
        }
        let ls = string_sym(l)?;
        let rs = string_sym(r)?;
        // Only string/string comparisons are symbolic; require at least
        // one side to actually be symbolic.
        if l.sym.is_none() && r.sym.is_none() {
            return None;
        }
        if !matches!(l.value, Value::Str(_)) || !matches!(r.value, Value::Str(_)) {
            return None;
        }
        Some(SymExpr::StrEq(Box::new(ls), Box::new(rs)))
    }

    // --- Regex and string methods ----------------------------------------

    fn eval_method(&mut self, recv: Concolic, name: &str, args: Vec<Concolic>) -> Concolic {
        match (&recv.value, name) {
            (Value::RegExp(regex), "test") => {
                let subject = args
                    .first()
                    .cloned()
                    .unwrap_or_else(|| Concolic::concrete(Value::Str(String::new())));
                self.regex_exec(regex.clone(), subject, true)
            }
            (Value::RegExp(regex), "exec") => {
                let subject = args
                    .first()
                    .cloned()
                    .unwrap_or_else(|| Concolic::concrete(Value::Str(String::new())));
                self.regex_exec(regex.clone(), subject, false)
            }
            (Value::Str(_), "match") => {
                // s.match(re) without `g` behaves like re.exec(s).
                if let Some(Value::RegExp(regex)) = args.first().map(|a| a.value.clone()) {
                    if !regex.flags.global {
                        return self.regex_exec(regex, recv, false);
                    }
                    // Global match: concrete only.
                    let s = recv.as_str().unwrap_or_default();
                    let re = self.matchers.get(&regex, false);
                    let (kind, all) = (re.engine_kind(), es6_matcher::string_match(s, re));
                    self.note_engine(kind);
                    return match all {
                        Some(all) => Concolic::concrete(Value::Array(
                            all.into_iter()
                                .map(|m| Concolic::concrete(Value::Str(m)))
                                .collect(),
                        )),
                        None => Concolic::concrete(Value::Null),
                    };
                }
                Concolic::concrete(Value::Null)
            }
            (Value::Str(s), "search") => {
                if let Some(Value::RegExp(regex)) = args.first().map(|a| &a.value) {
                    let re = self.matchers.get(regex, false);
                    let (kind, at) = (re.engine_kind(), es6_matcher::string_search(s, re));
                    self.note_engine(kind);
                    return Concolic::concrete(Value::Num(at as f64));
                }
                Concolic::concrete(Value::Num(-1.0))
            }
            (Value::Str(s), "split") => {
                if let Some(first) = args.first() {
                    let pieces: Vec<String> = match &first.value {
                        Value::RegExp(regex) => {
                            let re = self.matchers.get(regex, false);
                            let kind = re.engine_kind();
                            let pieces = es6_matcher::string_split(s, re, None);
                            self.note_engine(kind);
                            pieces
                        }
                        Value::Str(sep) => s.split(sep.as_str()).map(String::from).collect(),
                        _ => vec![s.clone()],
                    };
                    return Concolic::concrete(Value::Array(
                        pieces
                            .into_iter()
                            .map(|p| Concolic::concrete(Value::Str(p)))
                            .collect(),
                    ));
                }
                Concolic::concrete(Value::Undefined)
            }
            (Value::Str(s), "replace") => {
                let (Some(pat), Some(rep)) = (args.first(), args.get(1)) else {
                    return recv;
                };
                let rep_str = rep.value.to_display();
                let result = match &pat.value {
                    Value::RegExp(regex) => {
                        let re = self.matchers.get(regex, false);
                        let kind = re.engine_kind();
                        let replaced = es6_matcher::string_replace(s, re, &rep_str);
                        self.note_engine(kind);
                        replaced
                    }
                    Value::Str(needle) => s.replacen(needle.as_str(), &rep_str, 1),
                    _ => s.clone(),
                };
                Concolic::concrete(Value::Str(result))
            }
            (Value::Str(s), "toLowerCase") => Concolic::concrete(Value::Str(s.to_lowercase())),
            (Value::Str(s), "toUpperCase") => Concolic::concrete(Value::Str(s.to_uppercase())),
            (Value::Str(s), "trim") => Concolic::concrete(Value::Str(s.trim().into())),
            (Value::Str(s), "charAt") => {
                let i = args.first().map(|a| to_num(&a.value) as usize).unwrap_or(0);
                Concolic::concrete(Value::Str(
                    s.chars().nth(i).map(|c| c.to_string()).unwrap_or_default(),
                ))
            }
            (Value::Str(s), "indexOf") => {
                let needle = args
                    .first()
                    .map(|a| a.value.to_display())
                    .unwrap_or_default();
                let idx = s
                    .find(&needle)
                    .map(|byte| s[..byte].chars().count() as f64)
                    .unwrap_or(-1.0);
                Concolic::concrete(Value::Num(idx))
            }
            (Value::Str(s), "slice") | (Value::Str(s), "substring") => {
                let chars: Vec<char> = s.chars().collect();
                let start = args
                    .first()
                    .map(|a| to_num(&a.value) as usize)
                    .unwrap_or(0)
                    .min(chars.len());
                let end = args
                    .get(1)
                    .map(|a| (to_num(&a.value) as usize).min(chars.len()))
                    .unwrap_or(chars.len());
                let out: String = chars[start.min(end)..end].iter().collect();
                Concolic::concrete(Value::Str(out))
            }
            (Value::Str(s), "concat") => {
                let mut out = s.clone();
                let mut syms = vec![string_sym(&recv)];
                for a in &args {
                    out.push_str(&a.value.to_display());
                    syms.push(string_sym(a));
                }
                let sym = if syms.iter().all(Option::is_some) {
                    Some(SymExpr::concat(
                        syms.into_iter().map(|s| s.expect("checked")).collect(),
                    ))
                } else {
                    None
                };
                Concolic {
                    value: Value::Str(out),
                    sym,
                }
            }
            (Value::Array(items), "join") => {
                let sep = args
                    .first()
                    .map(|a| a.value.to_display())
                    .unwrap_or_else(|| ",".into());
                let joined = items
                    .iter()
                    .map(|c| c.value.to_display())
                    .collect::<Vec<_>>()
                    .join(&sep);
                Concolic::concrete(Value::Str(joined))
            }
            (Value::Array(items), "push") => {
                // Arrays are value-semantic in the mini language; push on
                // an rvalue has no effect, so return the new length only.
                Concolic::concrete(Value::Num(items.len() as f64 + 1.0))
            }
            _ => Concolic::concrete(Value::Undefined),
        }
    }

    /// The symbolic regex operation (§3.2): runs the concrete matcher,
    /// records a [`RegexEvent`] when the subject is symbolic, and
    /// returns the (concolic) result.
    fn regex_exec(&mut self, regex: Arc<Regex>, subject: Concolic, as_test: bool) -> Concolic {
        let concrete_subject = subject.value.to_display();
        let oracle = self.matchers.get(&regex, true);
        let (kind, result) = (oracle.engine_kind(), oracle.exec(&concrete_subject));
        self.note_engine(kind);
        let matched = result.is_some();

        let symbolic = self.config.support.models_regex()
            && subject.sym.is_some()
            && subject.sym.as_ref().is_some_and(SymExpr::is_string);
        let event = if symbolic {
            let event_id = self.trace.events.len();
            self.trace.events.push(RegexEvent {
                regex,
                subject: subject.sym.clone().expect("checked symbolic"),
                matched,
                concrete_captures: result
                    .as_ref()
                    .map(|m| m.captures.clone())
                    .unwrap_or_default(),
            });
            // The membership clause of §3.2 enters the path condition at
            // the call site.
            self.trace.path.push(Clause {
                cond: SymExpr::TestResult { event: event_id },
                taken: matched,
                branch_id: u32::MAX - event_id as u32,
            });
            Some(event_id)
        } else {
            None
        };

        if as_test {
            return Concolic {
                value: Value::Bool(matched),
                sym: event.map(|event| SymExpr::TestResult { event }),
            };
        }
        match result {
            None => Concolic {
                value: Value::Null,
                sym: event.map(|event| SymExpr::TestResult { event }),
            },
            Some(m) => {
                let model_captures = self.config.support.models_captures() && event.is_some();
                let items: Vec<Concolic> = m
                    .captures
                    .iter()
                    .enumerate()
                    .map(|(i, cap)| {
                        let value = match cap {
                            Some(s) => Value::Str(s.clone()),
                            None => Value::Undefined,
                        };
                        let sym = if model_captures {
                            Some(SymExpr::Capture {
                                event: event.expect("checked"),
                                index: i,
                            })
                        } else {
                            None
                        };
                        Concolic { value, sym }
                    })
                    .collect();
                Concolic {
                    value: Value::Array(items),
                    sym: event.map(|event| SymExpr::TestResult { event }),
                }
            }
        }
    }
}

fn to_num(v: &Value) -> f64 {
    match v {
        Value::Num(n) => *n,
        Value::Bool(true) => 1.0,
        Value::Bool(false) => 0.0,
        Value::Str(s) => s.trim().parse().unwrap_or(f64::NAN),
        Value::Null => 0.0,
        _ => f64::NAN,
    }
}

/// The string-sorted symbolic shadow of a value: its symbolic expression
/// when present, or its concrete content as a literal.
fn string_sym(c: &Concolic) -> Option<SymExpr> {
    match (&c.sym, &c.value) {
        (Some(sym), _) if sym.is_string() => Some(sym.clone()),
        (None, Value::Str(s)) => Some(SymExpr::StrLit(s.clone())),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_program;

    fn run(src: &str, harness: Harness, inputs: &[&str]) -> Trace {
        let program = parse_program(src).expect("parse");
        let inputs: Vec<String> = inputs.iter().map(|s| s.to_string()).collect();
        execute(&program, &harness, &inputs, &InterpConfig::default())
    }

    #[test]
    fn concrete_arithmetic() {
        let trace = run(
            "function f(x) { let a = 1 + 2; assert(a === 3); }",
            Harness::strings("f", 1),
            &[""],
        );
        assert!(trace.assertion_failures.is_empty());
    }

    #[test]
    fn symbolic_branch_recorded() {
        let trace = run(
            r#"function f(x) { if (x === "secret") { return 1; } return 0; }"#,
            Harness::strings("f", 1),
            &["nope"],
        );
        assert_eq!(trace.path.len(), 1);
        assert!(!trace.path[0].taken);
    }

    #[test]
    fn regex_event_recorded() {
        let trace = run(
            r#"function f(x) { if (/^a+$/.test(x)) { return 1; } return 0; }"#,
            Harness::strings("f", 1),
            &["bbb"],
        );
        assert_eq!(trace.events.len(), 1);
        assert!(!trace.events[0].matched);
        // One clause from the regex call, one from the branch.
        assert_eq!(trace.path.len(), 2);
    }

    #[test]
    fn exec_captures_are_symbolic() {
        let trace = run(
            r#"function f(x) {
                let m = /^<([a-z]+)>$/.exec(x);
                if (m) { if (m[1] === "div") { return 1; } }
                return 0;
            }"#,
            Harness::strings("f", 1),
            &["<div>"],
        );
        assert_eq!(trace.events.len(), 1);
        assert!(trace.events[0].matched);
        // Regex clause + truthiness + capture comparison.
        assert_eq!(trace.path.len(), 3);
        assert!(matches!(
            &trace.path[2].cond,
            SymExpr::StrEq(lhs, _) if matches!(**lhs, SymExpr::Capture { index: 1, .. })
        ));
    }

    #[test]
    fn one_literal_serves_the_oracle_and_the_flagged_matcher() {
        // `test` matches as if `g` and `y` were clear; `replace` honours
        // both. One literal used both ways gets two memo entries, and a
        // warm memo gives the same answers as a cold one.
        let program = parse_program(
            r#"function f(x) {
                let re = /a/gy;
                assert(re.test("ba") === true);
                assert("aab".replace(re, "-") === "--b");
                assert(re.test("ba") === true);
            }"#,
        )
        .expect("parse");
        let harness = Harness::strings("f", 1);
        let mut matchers = MatcherMemo::default();
        for _ in 0..2 {
            let trace = execute_with(
                &program,
                &harness,
                &[String::new()],
                &InterpConfig::default(),
                &mut matchers,
            );
            assert!(trace.assertion_failures.is_empty());
            assert_eq!(trace.matcher_fast_path, 3);
        }
        assert_eq!(matchers.matchers.len(), 2);
    }

    #[test]
    fn concrete_support_level_records_nothing() {
        let program =
            parse_program(r#"function f(x) { if (/a/.test(x)) { return 1; } return 0; }"#)
                .expect("parse");
        let config = InterpConfig {
            support: SupportLevel::Concrete,
            ..InterpConfig::default()
        };
        let trace = execute(
            &program,
            &Harness::strings("f", 1),
            &["a".to_string()],
            &config,
        );
        assert!(trace.events.is_empty());
        assert!(trace.path.is_empty());
    }

    #[test]
    fn assertion_failure_detected() {
        let trace = run(
            r#"function f(x) { assert(x === "ok"); }"#,
            Harness::strings("f", 1),
            &["bad"],
        );
        assert_eq!(trace.assertion_failures.len(), 1);
    }

    #[test]
    fn loops_terminate_via_budget() {
        let program =
            parse_program("function f(x) { while (true) { let a = 1; } }").expect("parse");
        let config = InterpConfig {
            max_steps: 1000,
            ..InterpConfig::default()
        };
        let trace = execute(
            &program,
            &Harness::strings("f", 1),
            &[String::new()],
            &config,
        );
        assert!(trace.steps <= 1000 + 1);
    }

    #[test]
    fn array_harness() {
        let trace = run(
            r#"function f(args) {
                let total = "";
                for (let i = 0; i < args.length; i = i + 1) {
                    total = total + args[i];
                }
                if (total === "ab") { return 1; }
                return 0;
            }"#,
            Harness::string_array("f", 2),
            &["a", "b"],
        );
        assert_eq!(trace.inputs_used, 2);
        assert!(trace.path.iter().any(|c| c.taken));
    }

    #[test]
    fn string_methods_concretize() {
        let trace = run(
            r#"function f(x) {
                let lower = x.toLowerCase();
                if (lower === "abc") { return 1; }
                return 0;
            }"#,
            Harness::strings("f", 1),
            &["ABC"],
        );
        // toLowerCase concretizes: comparison is not symbolic.
        assert!(trace.path.is_empty());
    }

    #[test]
    fn concat_stays_symbolic() {
        let trace = run(
            r#"function f(x) {
                let s = "pre-" + x;
                if (s === "pre-fix") { return 1; }
                return 0;
            }"#,
            Harness::strings("f", 1),
            &["fix"],
        );
        assert_eq!(trace.path.len(), 1);
        assert!(trace.path[0].taken);
    }
}
