//! Recursive-descent parser for the mini-JS language.

use std::fmt;
use std::sync::Arc;

use regex_syntax_es6::Regex;

use crate::ast::{BinOp, Expr, Function, Program, Stmt, StmtId, Target, UnOp};
use crate::lexer::{lex, LexError, Token};

/// A parsing error.
#[derive(Debug, Clone)]
pub struct ParseError {
    /// Token index at which the error occurred.
    pub position: usize,
    /// Description.
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "parse error at token {}: {}",
            self.position, self.message
        )
    }
}

impl std::error::Error for ParseError {}

impl From<LexError> for ParseError {
    fn from(err: LexError) -> ParseError {
        ParseError {
            position: err.position,
            message: err.message,
        }
    }
}

/// Parses mini-JS source into a [`Program`].
///
/// # Errors
///
/// Returns [`ParseError`] on syntax errors (including regex literal
/// syntax errors, which are checked eagerly).
///
/// # Examples
///
/// ```
/// use expose_dse::parser::parse_program;
///
/// let program = parse_program(r#"
///     function greet(name) {
///         if (/^[a-z]+$/.test(name)) { return "hi " + name; }
///         return "?";
///     }
/// "#)?;
/// assert!(program.stmt_count >= 3);
/// # Ok::<(), expose_dse::parser::ParseError>(())
/// ```
pub fn parse_program(src: &str) -> Result<Program, ParseError> {
    let tokens = lex(src)?;
    let mut parser = Parser {
        tokens,
        pos: 0,
        next_id: 0,
    };
    let mut body = Vec::new();
    while !parser.at_eof() {
        body.push(parser.statement()?);
    }
    Ok(Program {
        body: exact(body),
        stmt_count: parser.next_id,
    })
}

/// `items` without spare capacity. A parsed program lives as long as the
/// pool that holds it, and pushing leaves a vector up to twice (a short
/// one up to four times) the room its items take.
fn exact<T>(mut items: Vec<T>) -> Vec<T> {
    items.shrink_to_fit();
    items
}

struct Parser {
    tokens: Vec<Token>,
    pos: usize,
    next_id: StmtId,
}

impl Parser {
    fn fresh_id(&mut self) -> StmtId {
        let id = self.next_id;
        self.next_id += 1;
        id
    }

    fn peek(&self) -> &Token {
        &self.tokens[self.pos.min(self.tokens.len() - 1)]
    }

    fn at_eof(&self) -> bool {
        matches!(self.peek(), Token::Eof)
    }

    fn bump(&mut self) -> Token {
        let t = self.tokens[self.pos.min(self.tokens.len() - 1)].clone();
        if self.pos < self.tokens.len() {
            self.pos += 1;
        }
        t
    }

    fn error(&self, message: impl Into<String>) -> ParseError {
        ParseError {
            position: self.pos,
            message: message.into(),
        }
    }

    fn expect_punct(&mut self, p: &'static str) -> Result<(), ParseError> {
        match self.bump() {
            Token::Punct(q) if q == p => Ok(()),
            other => Err(self.error(format!("expected `{p}`, found `{other}`"))),
        }
    }

    fn eat_punct(&mut self, p: &'static str) -> bool {
        if matches!(self.peek(), Token::Punct(q) if *q == p) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn eat_ident(&mut self, word: &str) -> bool {
        if matches!(self.peek(), Token::Ident(w) if w == word) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn ident(&mut self) -> Result<String, ParseError> {
        match self.bump() {
            Token::Ident(name) => Ok(name),
            other => Err(self.error(format!("expected identifier, found `{other}`"))),
        }
    }

    fn statement(&mut self) -> Result<Stmt, ParseError> {
        if self.eat_ident("let") || self.eat_ident("var") || self.eat_ident("const") {
            let id = self.fresh_id();
            let name = self.ident()?;
            self.expect_punct("=")?;
            let value = self.expression()?;
            self.eat_punct(";");
            return Ok(Stmt::Let { id, name, value });
        }
        if self.eat_ident("if") {
            let id = self.fresh_id();
            self.expect_punct("(")?;
            let cond = self.expression()?;
            self.expect_punct(")")?;
            let then_body = self.block_or_single()?;
            let else_body = if self.eat_ident("else") {
                if matches!(self.peek(), Token::Ident(w) if w == "if") {
                    vec![self.statement()?]
                } else {
                    self.block_or_single()?
                }
            } else {
                Vec::new()
            };
            return Ok(Stmt::If {
                id,
                cond,
                then_body,
                else_body,
            });
        }
        if self.eat_ident("while") {
            let id = self.fresh_id();
            self.expect_punct("(")?;
            let cond = self.expression()?;
            self.expect_punct(")")?;
            let body = self.block_or_single()?;
            return Ok(Stmt::While { id, cond, body });
        }
        if self.eat_ident("for") {
            // Desugar `for (init; cond; update) body` to init + while.
            let id = self.fresh_id();
            self.expect_punct("(")?;
            let init = if self.eat_punct(";") {
                None
            } else {
                let s = self.statement()?; // consumes `;`
                Some(s)
            };
            let cond = if matches!(self.peek(), Token::Punct(";")) {
                Expr::Bool(true)
            } else {
                self.expression()?
            };
            self.eat_punct(";");
            let update = if matches!(self.peek(), Token::Punct(")")) {
                None
            } else {
                let target = self.assign_target()?;
                self.expect_punct("=")?;
                let value = self.expression()?;
                let uid = self.fresh_id();
                Some(Stmt::Assign {
                    id: uid,
                    target,
                    value,
                })
            };
            self.expect_punct(")")?;
            let mut body = self.block_or_single()?;
            if let Some(update) = update {
                body.push(update);
            }
            let while_stmt = Stmt::While {
                id,
                cond,
                body: exact(body),
            };
            return Ok(match init {
                Some(init) => {
                    // Wrap in a synthetic block via an If(true) so the
                    // statement type stays simple.
                    let wrapper_id = self.fresh_id();
                    Stmt::If {
                        id: wrapper_id,
                        cond: Expr::Bool(true),
                        then_body: vec![init, while_stmt],
                        else_body: Vec::new(),
                    }
                }
                None => while_stmt,
            });
        }
        if self.eat_ident("function") {
            let id = self.fresh_id();
            let name = self.ident()?;
            self.expect_punct("(")?;
            let mut params = Vec::new();
            if !self.eat_punct(")") {
                loop {
                    params.push(self.ident()?);
                    if self.eat_punct(")") {
                        break;
                    }
                    self.expect_punct(",")?;
                }
            }
            let params = exact(params);
            let body = self.block()?;
            return Ok(Stmt::FunctionDecl {
                id,
                func: Arc::new(Function { name, params, body }),
            });
        }
        if self.eat_ident("return") {
            let id = self.fresh_id();
            let value = if matches!(self.peek(), Token::Punct(";") | Token::Punct("}")) {
                None
            } else {
                Some(self.expression()?)
            };
            self.eat_punct(";");
            return Ok(Stmt::Return { id, value });
        }
        if matches!(self.peek(), Token::Ident(w) if w == "assert") {
            // `assert(e);`
            self.bump();
            let id = self.fresh_id();
            self.expect_punct("(")?;
            let cond = self.expression()?;
            self.expect_punct(")")?;
            self.eat_punct(";");
            return Ok(Stmt::Assert { id, cond });
        }
        // Assignment or expression statement.
        let start = self.pos;
        if let Ok(target) = self.assign_target() {
            if self.eat_punct("=") {
                let id = self.fresh_id();
                let value = self.expression()?;
                self.eat_punct(";");
                return Ok(Stmt::Assign { id, target, value });
            }
        }
        self.pos = start;
        let id = self.fresh_id();
        let expr = self.expression()?;
        self.eat_punct(";");
        Ok(Stmt::ExprStmt { id, expr })
    }

    fn assign_target(&mut self) -> Result<Target, ParseError> {
        let name = match self.peek().clone() {
            Token::Ident(name) => {
                self.bump();
                name
            }
            other => return Err(self.error(format!("expected target, found `{other}`"))),
        };
        if self.eat_punct("[") {
            let index = self.expression()?;
            self.expect_punct("]")?;
            // Only single-level index targets.
            return Ok(Target::Index(Box::new(Expr::Var(name)), Box::new(index)));
        }
        Ok(Target::Var(name))
    }

    fn block(&mut self) -> Result<Vec<Stmt>, ParseError> {
        self.expect_punct("{")?;
        let mut body = Vec::new();
        while !self.eat_punct("}") {
            if self.at_eof() {
                return Err(self.error("unterminated block"));
            }
            body.push(self.statement()?);
        }
        Ok(exact(body))
    }

    fn block_or_single(&mut self) -> Result<Vec<Stmt>, ParseError> {
        if matches!(self.peek(), Token::Punct("{")) {
            self.block()
        } else {
            Ok(vec![self.statement()?])
        }
    }

    // --- Expressions (precedence climbing) ------------------------------

    fn expression(&mut self) -> Result<Expr, ParseError> {
        self.or_expr()
    }

    fn or_expr(&mut self) -> Result<Expr, ParseError> {
        let mut left = self.and_expr()?;
        while self.eat_punct("||") {
            let right = self.and_expr()?;
            left = Expr::Binary(BinOp::Or, Box::new(left), Box::new(right));
        }
        Ok(left)
    }

    fn and_expr(&mut self) -> Result<Expr, ParseError> {
        let mut left = self.equality()?;
        while self.eat_punct("&&") {
            let right = self.equality()?;
            left = Expr::Binary(BinOp::And, Box::new(left), Box::new(right));
        }
        Ok(left)
    }

    fn equality(&mut self) -> Result<Expr, ParseError> {
        let mut left = self.comparison()?;
        loop {
            let op = if self.eat_punct("===") || self.eat_punct("==") {
                BinOp::StrictEq
            } else if self.eat_punct("!==") || self.eat_punct("!=") {
                BinOp::StrictNe
            } else {
                break;
            };
            let right = self.comparison()?;
            left = Expr::Binary(op, Box::new(left), Box::new(right));
        }
        Ok(left)
    }

    fn comparison(&mut self) -> Result<Expr, ParseError> {
        let mut left = self.additive()?;
        loop {
            let op = if self.eat_punct("<=") {
                BinOp::Le
            } else if self.eat_punct(">=") {
                BinOp::Ge
            } else if self.eat_punct("<") {
                BinOp::Lt
            } else if self.eat_punct(">") {
                BinOp::Gt
            } else {
                break;
            };
            let right = self.additive()?;
            left = Expr::Binary(op, Box::new(left), Box::new(right));
        }
        Ok(left)
    }

    fn additive(&mut self) -> Result<Expr, ParseError> {
        let mut left = self.multiplicative()?;
        loop {
            let op = if self.eat_punct("+") {
                BinOp::Add
            } else if self.eat_punct("-") {
                BinOp::Sub
            } else {
                break;
            };
            let right = self.multiplicative()?;
            left = Expr::Binary(op, Box::new(left), Box::new(right));
        }
        Ok(left)
    }

    fn multiplicative(&mut self) -> Result<Expr, ParseError> {
        let mut left = self.unary()?;
        loop {
            let op = if self.eat_punct("*") {
                BinOp::Mul
            } else if self.eat_punct("/") {
                BinOp::Div
            } else if self.eat_punct("%") {
                BinOp::Mod
            } else {
                break;
            };
            let right = self.unary()?;
            left = Expr::Binary(op, Box::new(left), Box::new(right));
        }
        Ok(left)
    }

    fn unary(&mut self) -> Result<Expr, ParseError> {
        if self.eat_punct("!") {
            return Ok(Expr::Unary(UnOp::Not, Box::new(self.unary()?)));
        }
        if self.eat_punct("-") {
            return Ok(Expr::Unary(UnOp::Neg, Box::new(self.unary()?)));
        }
        if self.eat_ident("typeof") {
            return Ok(Expr::Unary(UnOp::TypeOf, Box::new(self.unary()?)));
        }
        self.postfix()
    }

    fn postfix(&mut self) -> Result<Expr, ParseError> {
        let mut expr = self.primary()?;
        loop {
            if self.eat_punct("[") {
                let index = self.expression()?;
                self.expect_punct("]")?;
                expr = Expr::Index(Box::new(expr), Box::new(index));
            } else if self.eat_punct(".") {
                let name = self.ident()?;
                if self.eat_punct("(") {
                    let args = self.call_args()?;
                    expr = Expr::MethodCall(Box::new(expr), name, args);
                } else {
                    expr = Expr::Member(Box::new(expr), name);
                }
            } else {
                break;
            }
        }
        Ok(expr)
    }

    fn call_args(&mut self) -> Result<Vec<Expr>, ParseError> {
        let mut args = Vec::new();
        if self.eat_punct(")") {
            return Ok(args);
        }
        loop {
            args.push(self.expression()?);
            if self.eat_punct(")") {
                return Ok(exact(args));
            }
            self.expect_punct(",")?;
        }
    }

    fn primary(&mut self) -> Result<Expr, ParseError> {
        match self.bump() {
            Token::Num(n) => Ok(Expr::Num(n)),
            Token::Str(s) => Ok(Expr::Str(s)),
            Token::Regex(text) => {
                let regex = Regex::parse_literal(&text)
                    .map_err(|e| self.error(format!("bad regex literal: {e}")))?;
                Ok(Expr::Regex(Arc::new(regex)))
            }
            Token::Punct("(") => {
                let e = self.expression()?;
                self.expect_punct(")")?;
                Ok(e)
            }
            Token::Punct("[") => {
                let mut items = Vec::new();
                if !self.eat_punct("]") {
                    loop {
                        items.push(self.expression()?);
                        if self.eat_punct("]") {
                            break;
                        }
                        self.expect_punct(",")?;
                    }
                }
                Ok(Expr::Array(exact(items)))
            }
            Token::Ident(word) => match word.as_str() {
                "undefined" => Ok(Expr::Undefined),
                "null" => Ok(Expr::Null),
                "true" => Ok(Expr::Bool(true)),
                "false" => Ok(Expr::Bool(false)),
                _ => {
                    if self.eat_punct("(") {
                        let args = self.call_args()?;
                        Ok(Expr::Call(word, args))
                    } else {
                        Ok(Expr::Var(word))
                    }
                }
            },
            other => Err(self.error(format!("unexpected token `{other}`"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_let_and_if() {
        let p = parse_program("let x = 1; if (x === 1) { x = 2; } else { x = 3; }").expect("parse");
        assert_eq!(p.body.len(), 2);
    }

    #[test]
    fn parse_function() {
        let p = parse_program("function f(a, b) { return a + b; }").expect("parse");
        match &p.body[0] {
            Stmt::FunctionDecl { func, .. } => {
                assert_eq!(func.name, "f");
                assert_eq!(func.params, vec!["a", "b"]);
            }
            other => panic!("expected function, got {other:?}"),
        }
    }

    #[test]
    fn parse_regex_method_call() {
        let p = parse_program(r"let m = /a(b)/.exec(s);").expect("parse");
        match &p.body[0] {
            Stmt::Let { value, .. } => {
                assert!(matches!(value, Expr::MethodCall(_, name, _) if name == "exec"));
            }
            other => panic!("expected let, got {other:?}"),
        }
    }

    #[test]
    fn parse_listing1() {
        // Listing 1 from the paper, adapted to the mini language.
        let src = r#"
            function run(args) {
                let timeout = "500";
                for (let i = 0; i < args.length; i = i + 1) {
                    let arg = args[i];
                    let parts = /<(\w+)>([0-9]*)<\/\1>/.exec(arg);
                    if (parts) {
                        if (parts[1] === "timeout") {
                            timeout = parts[2];
                        }
                    }
                }
                assert(/^[0-9]+$/.test(timeout) === true);
            }
        "#;
        let p = parse_program(src).expect("parse");
        assert_eq!(p.body.len(), 1);
    }

    #[test]
    fn parse_while_and_assert() {
        let p = parse_program("let i = 0; while (i < 3) { i = i + 1; } assert(i === 3);")
            .expect("parse");
        assert_eq!(p.body.len(), 3);
    }

    #[test]
    fn parse_array_and_index() {
        let p = parse_program(r#"let a = ["x", "y"]; let b = a[1];"#).expect("parse");
        assert_eq!(p.body.len(), 2);
    }

    #[test]
    fn parse_member_and_chained_calls() {
        let p = parse_program(r#"let n = s.length; let t = s.replace(/a/g, "b");"#).expect("parse");
        assert_eq!(p.body.len(), 2);
    }

    #[test]
    fn errors() {
        assert!(parse_program("let = 1;").is_err());
        assert!(parse_program("if (x { }").is_err());
        assert!(parse_program("let r = /(/;").is_err());
    }
}
