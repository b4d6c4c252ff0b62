//! AST of the JavaScript-like mini language executed by the DSE engine.
//!
//! The language covers the fragment the paper's evaluation exercises:
//! string-manipulating library code with regex literals, `RegExp`
//! methods, capture-group access, string comparison, arrays, and
//! assertions (Listing 1 of the paper is expressible verbatim modulo
//! syntax).
//!
//! Function declarations and regex literals sit behind [`Arc`]s, so
//! cloning a [`Program`] (once per submitted job), declaring a function
//! and evaluating a literal (once per execution) copy a pointer, not an
//! AST.

use std::sync::Arc;

use regex_syntax_es6::Regex;

/// Statement identifier used for coverage accounting.
pub type StmtId = u32;

/// A parsed program: top-level statements plus function declarations.
#[derive(Debug, Clone)]
pub struct Program {
    /// Top-level statements in order.
    pub body: Vec<Stmt>,
    /// Total number of statements (for coverage percentages).
    pub stmt_count: u32,
}

/// A function declaration.
#[derive(Debug, Clone)]
pub struct Function {
    /// Function name.
    pub name: String,
    /// Parameter names.
    pub params: Vec<String>,
    /// Body statements.
    pub body: Vec<Stmt>,
}

/// Statements.
#[derive(Debug, Clone)]
pub enum Stmt {
    /// `let x = e;`
    Let {
        /// Coverage id.
        id: StmtId,
        /// Variable name.
        name: String,
        /// Initializer.
        value: Expr,
    },
    /// `x = e;` or `x[i] = e;`
    Assign {
        /// Coverage id.
        id: StmtId,
        /// Assignment target.
        target: Target,
        /// Right-hand side.
        value: Expr,
    },
    /// `if (c) { … } else { … }`
    If {
        /// Coverage id.
        id: StmtId,
        /// Branch condition.
        cond: Expr,
        /// Then-branch.
        then_body: Vec<Stmt>,
        /// Else-branch (possibly empty).
        else_body: Vec<Stmt>,
    },
    /// `while (c) { … }`
    While {
        /// Coverage id.
        id: StmtId,
        /// Loop condition.
        cond: Expr,
        /// Loop body.
        body: Vec<Stmt>,
    },
    /// `for (let x = e; c; x = u) { … }` desugars to Let+While.
    /// `function f(a, b) { … }`
    FunctionDecl {
        /// Coverage id.
        id: StmtId,
        /// The function.
        func: Arc<Function>,
    },
    /// `return e;`
    Return {
        /// Coverage id.
        id: StmtId,
        /// Returned expression (`undefined` if omitted).
        value: Option<Expr>,
    },
    /// `assert(e);` — the bug oracle of the evaluation.
    Assert {
        /// Coverage id.
        id: StmtId,
        /// Asserted condition.
        cond: Expr,
    },
    /// A bare expression statement.
    ExprStmt {
        /// Coverage id.
        id: StmtId,
        /// The expression.
        expr: Expr,
    },
}

impl Stmt {
    /// The coverage id of this statement.
    pub fn id(&self) -> StmtId {
        match self {
            Stmt::Let { id, .. }
            | Stmt::Assign { id, .. }
            | Stmt::If { id, .. }
            | Stmt::While { id, .. }
            | Stmt::FunctionDecl { id, .. }
            | Stmt::Return { id, .. }
            | Stmt::Assert { id, .. }
            | Stmt::ExprStmt { id, .. } => *id,
        }
    }
}

/// Assignment targets.
#[derive(Debug, Clone)]
pub enum Target {
    /// A variable.
    Var(String),
    /// An element `base[index]`.
    Index(Box<Expr>, Box<Expr>),
}

/// Expressions.
#[derive(Debug, Clone)]
pub enum Expr {
    /// `undefined`
    Undefined,
    /// `null`
    Null,
    /// Boolean literal.
    Bool(bool),
    /// Number literal.
    Num(f64),
    /// String literal.
    Str(String),
    /// Regex literal `/source/flags`.
    Regex(Arc<Regex>),
    /// Array literal.
    Array(Vec<Expr>),
    /// Variable reference.
    Var(String),
    /// `base[index]`
    Index(Box<Expr>, Box<Expr>),
    /// `base.name` (property read, e.g. `.length`).
    Member(Box<Expr>, String),
    /// Unary operator.
    Unary(UnOp, Box<Expr>),
    /// Binary operator.
    Binary(BinOp, Box<Expr>, Box<Expr>),
    /// Function call `f(args)`.
    Call(String, Vec<Expr>),
    /// Method call `recv.name(args)`.
    MethodCall(Box<Expr>, String, Vec<Expr>),
}

/// Unary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UnOp {
    /// Logical negation `!`.
    Not,
    /// Numeric negation `-`.
    Neg,
    /// `typeof`.
    TypeOf,
}

/// Binary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BinOp {
    /// `+` (numeric addition or string concatenation).
    Add,
    /// `-`
    Sub,
    /// `*`
    Mul,
    /// `/`
    Div,
    /// `%`
    Mod,
    /// `===` (also used for `==` — the mini language is strict).
    StrictEq,
    /// `!==`
    StrictNe,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
    /// `&&`
    And,
    /// `||`
    Or,
}
