//! Runtime values and concolic pairs.

use std::sync::Arc;

use regex_syntax_es6::Regex;

use crate::sym::SymExpr;

/// A runtime value of the mini-JS interpreter.
#[derive(Debug, Clone)]
pub enum Value {
    /// `undefined`.
    Undefined,
    /// `null`.
    Null,
    /// A boolean.
    Bool(bool),
    /// A number (f64, like JavaScript).
    Num(f64),
    /// A string.
    Str(String),
    /// An array of concolic values.
    Array(Vec<Concolic>),
    /// A regex object (stateless; `lastIndex` is not modeled in the
    /// mini language — `g`/`y` matching is handled per call). Shares
    /// the program's literal.
    RegExp(Arc<Regex>),
}

impl Value {
    /// JavaScript truthiness.
    pub fn truthy(&self) -> bool {
        match self {
            Value::Undefined | Value::Null => false,
            Value::Bool(b) => *b,
            Value::Num(n) => *n != 0.0 && !n.is_nan(),
            Value::Str(s) => !s.is_empty(),
            Value::Array(_) | Value::RegExp(_) => true,
        }
    }

    /// `typeof` string.
    pub fn type_of(&self) -> &'static str {
        match self {
            Value::Undefined => "undefined",
            Value::Null | Value::Array(_) | Value::RegExp(_) => "object",
            Value::Bool(_) => "boolean",
            Value::Num(_) => "number",
            Value::Str(_) => "string",
        }
    }

    /// String coercion (for `+` and display).
    pub fn to_display(&self) -> String {
        match self {
            Value::Undefined => "undefined".into(),
            Value::Null => "null".into(),
            Value::Bool(b) => b.to_string(),
            Value::Num(n) => {
                if n.fract() == 0.0 && n.is_finite() && n.abs() < 1e15 {
                    format!("{}", *n as i64)
                } else {
                    n.to_string()
                }
            }
            Value::Str(s) => s.clone(),
            Value::Array(items) => items
                .iter()
                .map(|c| c.value.to_display())
                .collect::<Vec<_>>()
                .join(","),
            Value::RegExp(r) => format!("{r}"),
        }
    }

    /// Strict equality (`===`).
    pub fn strict_eq(&self, other: &Value) -> bool {
        match (self, other) {
            (Value::Undefined, Value::Undefined) | (Value::Null, Value::Null) => true,
            (Value::Bool(a), Value::Bool(b)) => a == b,
            (Value::Num(a), Value::Num(b)) => a == b,
            (Value::Str(a), Value::Str(b)) => a == b,
            _ => false,
        }
    }
}

/// A concolic value: a concrete [`Value`] paired with an optional
/// symbolic expression describing it in terms of the inputs.
#[derive(Debug, Clone)]
pub struct Concolic {
    /// The concrete value driving execution.
    pub value: Value,
    /// The symbolic shadow, when the value depends on symbolic inputs.
    pub sym: Option<SymExpr>,
}

impl Concolic {
    /// A purely concrete value.
    pub fn concrete(value: Value) -> Concolic {
        Concolic { value, sym: None }
    }

    /// A value with a symbolic shadow.
    pub fn symbolic(value: Value, sym: SymExpr) -> Concolic {
        Concolic {
            value,
            sym: Some(sym),
        }
    }

    /// Concrete string content, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match &self.value {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn truthiness() {
        assert!(!Value::Undefined.truthy());
        assert!(!Value::Str(String::new()).truthy());
        assert!(Value::Str("x".into()).truthy());
        assert!(!Value::Num(0.0).truthy());
        assert!(Value::Array(vec![]).truthy());
    }

    #[test]
    fn strict_eq_cross_type_is_false() {
        assert!(!Value::Num(1.0).strict_eq(&Value::Str("1".into())));
        assert!(!Value::Undefined.strict_eq(&Value::Null));
        assert!(Value::Str("a".into()).strict_eq(&Value::Str("a".into())));
    }

    #[test]
    fn display_coercion() {
        assert_eq!(Value::Num(3.0).to_display(), "3");
        assert_eq!(Value::Num(1.5).to_display(), "1.5");
        assert_eq!(Value::Undefined.to_display(), "undefined");
    }
}
