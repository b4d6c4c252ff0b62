//! JSON codec for symbolic expressions and regex events — the payload
//! of protocol-v2 `push` requests.
//!
//! Expressions are compact tagged arrays (`["in",0]`, `["eq",a,b]`,
//! …), events are objects carrying the regex source, its flags and the
//! symbolic subject. The encoding round-trips exactly the parts of a
//! [`RegexEvent`] the query builder reads (regex + subject); the
//! concrete outcome of the recorded execution (`matched`,
//! `concrete_captures`) never influences a flip query and is not sent.

use std::sync::Arc;

use expose_dse::sym::{RegexEvent, SymExpr};
use regex_syntax_es6::Regex;

use crate::json::{self, Value};

/// Serializes a symbolic expression as a compact tagged JSON array.
pub fn write_sym_expr(out: &mut String, e: &SymExpr) {
    use std::fmt::Write as _;
    match e {
        SymExpr::Input(k) => {
            let _ = write!(out, "[\"in\",{k}]");
        }
        SymExpr::StrLit(s) => {
            out.push_str("[\"lit\",");
            json::write_escaped(out, s);
            out.push(']');
        }
        SymExpr::Concat(items) => {
            out.push_str("[\"cat\",[");
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_sym_expr(out, item);
            }
            out.push_str("]]");
        }
        SymExpr::Capture { event, index } => {
            let _ = write!(out, "[\"cap\",{event},{index}]");
        }
        SymExpr::BoolLit(b) => {
            let _ = write!(out, "[\"bool\",{b}]");
        }
        SymExpr::StrEq(a, b) => {
            out.push_str("[\"eq\",");
            write_sym_expr(out, a);
            out.push(',');
            write_sym_expr(out, b);
            out.push(']');
        }
        SymExpr::Not(inner) => {
            out.push_str("[\"not\",");
            write_sym_expr(out, inner);
            out.push(']');
        }
        SymExpr::And(a, b) => {
            out.push_str("[\"and\",");
            write_sym_expr(out, a);
            out.push(',');
            write_sym_expr(out, b);
            out.push(']');
        }
        SymExpr::Or(a, b) => {
            out.push_str("[\"or\",");
            write_sym_expr(out, a);
            out.push(',');
            write_sym_expr(out, b);
            out.push(']');
        }
        SymExpr::TestResult { event } => {
            let _ = write!(out, "[\"test\",{event}]");
        }
        SymExpr::CaptureDefined { event, index } => {
            let _ = write!(out, "[\"capdef\",{event},{index}]");
        }
    }
}

/// Serializes a regex event as `{"regex":…,"flags":…,"subject":…}`.
pub fn write_event(out: &mut String, event: &RegexEvent) {
    out.push_str("{\"regex\":");
    json::write_escaped(out, &event.regex.source);
    out.push_str(",\"flags\":");
    json::write_escaped(out, &event.regex.flags.to_string());
    out.push_str(",\"subject\":");
    write_sym_expr(out, &event.subject);
    out.push('}');
}

fn arr_usize(v: &Value, what: &str) -> Result<usize, String> {
    v.as_u64()
        .map(|n| n as usize)
        .ok_or_else(|| format!("{what} must be a non-negative integer"))
}

/// Parses a tagged-array symbolic expression.
pub fn parse_sym_expr(v: &Value) -> Result<SymExpr, String> {
    let Value::Arr(items) = v else {
        return Err("expression must be a tagged array".into());
    };
    let tag = items
        .first()
        .and_then(Value::as_str)
        .ok_or("expression array must start with a string tag")?;
    let arity = |n: usize| -> Result<(), String> {
        if items.len() == n + 1 {
            Ok(())
        } else {
            Err(format!("\"{tag}\" takes {n} operand(s)"))
        }
    };
    match tag {
        "in" => {
            arity(1)?;
            Ok(SymExpr::Input(arr_usize(&items[1], "\"in\" operand")?))
        }
        "lit" => {
            arity(1)?;
            let s = items[1]
                .as_str()
                .ok_or("\"lit\" operand must be a string")?;
            Ok(SymExpr::StrLit(s.to_string()))
        }
        "cat" => {
            arity(1)?;
            let Value::Arr(parts) = &items[1] else {
                return Err("\"cat\" operand must be an array".into());
            };
            let parts: Result<Vec<SymExpr>, String> = parts.iter().map(parse_sym_expr).collect();
            Ok(SymExpr::Concat(parts?))
        }
        "cap" => {
            arity(2)?;
            Ok(SymExpr::Capture {
                event: arr_usize(&items[1], "\"cap\" event")?,
                index: arr_usize(&items[2], "\"cap\" index")?,
            })
        }
        "bool" => {
            arity(1)?;
            let b = items[1]
                .as_bool()
                .ok_or("\"bool\" operand must be a boolean")?;
            Ok(SymExpr::BoolLit(b))
        }
        "eq" => {
            arity(2)?;
            Ok(SymExpr::StrEq(
                Box::new(parse_sym_expr(&items[1])?),
                Box::new(parse_sym_expr(&items[2])?),
            ))
        }
        "not" => {
            arity(1)?;
            Ok(SymExpr::Not(Box::new(parse_sym_expr(&items[1])?)))
        }
        "and" => {
            arity(2)?;
            Ok(SymExpr::And(
                Box::new(parse_sym_expr(&items[1])?),
                Box::new(parse_sym_expr(&items[2])?),
            ))
        }
        "or" => {
            arity(2)?;
            Ok(SymExpr::Or(
                Box::new(parse_sym_expr(&items[1])?),
                Box::new(parse_sym_expr(&items[2])?),
            ))
        }
        "test" => {
            arity(1)?;
            Ok(SymExpr::TestResult {
                event: arr_usize(&items[1], "\"test\" event")?,
            })
        }
        "capdef" => {
            arity(2)?;
            Ok(SymExpr::CaptureDefined {
                event: arr_usize(&items[1], "\"capdef\" event")?,
                index: arr_usize(&items[2], "\"capdef\" index")?,
            })
        }
        other => Err(format!("unknown expression tag {other:?}")),
    }
}

/// Parses a regex event object. The regex is re-parsed from its source
/// and flags; `matched`/`concrete_captures` default to their neutral
/// values (the query builder never reads them).
pub fn parse_event(v: &Value) -> Result<RegexEvent, String> {
    let source = v
        .get("regex")
        .and_then(Value::as_str)
        .ok_or("event requires a \"regex\" string")?;
    let flags = match v.get("flags").and_then(Value::as_str) {
        None => regex_syntax_es6::Flags::empty(),
        Some(s) => s.parse().map_err(|e| format!("event flags {s:?}: {e}"))?,
    };
    let regex = Regex::new(source, flags).map_err(|e| format!("event regex {source:?}: {e}"))?;
    let subject = parse_sym_expr(
        v.get("subject")
            .ok_or("event requires a \"subject\" expression")?,
    )
    .map_err(|e| format!("event subject: {e}"))?;
    Ok(RegexEvent {
        regex: Arc::new(regex),
        subject,
        matched: false,
        concrete_captures: Vec::new(),
    })
}

/// The highest event index referenced by an expression, if any.
pub fn max_referenced_event(e: &SymExpr) -> Option<usize> {
    let mut refs = Vec::new();
    e.referenced_events(&mut refs);
    refs.into_iter().max()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(e: &SymExpr) -> SymExpr {
        let mut s = String::new();
        write_sym_expr(&mut s, e);
        parse_sym_expr(&json::parse(&s).expect("valid JSON")).expect("parses back")
    }

    #[test]
    fn expressions_roundtrip() {
        let exprs = vec![
            SymExpr::Input(3),
            SymExpr::StrLit("a\"b\\c\n".into()),
            SymExpr::Concat(vec![SymExpr::Input(0), SymExpr::StrLit("-".into())]),
            SymExpr::Capture { event: 2, index: 1 },
            SymExpr::BoolLit(true),
            SymExpr::StrEq(
                Box::new(SymExpr::Input(0)),
                Box::new(SymExpr::StrLit("k".into())),
            ),
            SymExpr::Not(Box::new(SymExpr::TestResult { event: 0 })),
            SymExpr::And(
                Box::new(SymExpr::BoolLit(false)),
                Box::new(SymExpr::Or(
                    Box::new(SymExpr::TestResult { event: 1 }),
                    Box::new(SymExpr::CaptureDefined { event: 1, index: 0 }),
                )),
            ),
        ];
        for e in &exprs {
            assert_eq!(&roundtrip(e), e, "{e:?}");
        }
    }

    #[test]
    fn events_roundtrip_regex_and_subject() {
        let regex = Regex::new("^a+$", "gi".parse().expect("flags")).expect("regex");
        let event = RegexEvent {
            regex: Arc::new(regex),
            subject: SymExpr::Concat(vec![SymExpr::Input(0), SymExpr::StrLit("x".into())]),
            matched: true,
            concrete_captures: vec![Some("aa".into())],
        };
        let mut s = String::new();
        write_event(&mut s, &event);
        let back = parse_event(&json::parse(&s).expect("valid JSON")).expect("parses back");
        assert_eq!(back.regex.source, "^a+$");
        assert_eq!(back.regex.flags.to_string(), "gi");
        assert_eq!(back.subject, event.subject);
    }

    #[test]
    fn malformed_expressions_are_rejected() {
        for bad in [
            r#"{"k":1}"#,
            r#"[1,2]"#,
            r#"["warp",0]"#,
            r#"["in"]"#,
            r#"["in","x"]"#,
            r#"["eq",["in",0]]"#,
            r#"["lit",7]"#,
        ] {
            let v = json::parse(bad).expect("valid JSON");
            assert!(parse_sym_expr(&v).is_err(), "{bad}");
        }
        let v = json::parse(r#"{"regex":"+invalid","flags":"","subject":["in",0]}"#).unwrap();
        assert!(parse_event(&v).is_err(), "invalid regex must be rejected");
        let v = json::parse(r#"{"regex":"a","flags":"zz","subject":["in",0]}"#).unwrap();
        assert!(parse_event(&v).is_err(), "invalid flags must be rejected");
    }

    #[test]
    fn max_referenced_event_walks_the_tree() {
        let e = SymExpr::And(
            Box::new(SymExpr::TestResult { event: 4 }),
            Box::new(SymExpr::StrEq(
                Box::new(SymExpr::Capture { event: 7, index: 0 }),
                Box::new(SymExpr::Input(0)),
            )),
        );
        assert_eq!(max_referenced_event(&e), Some(7));
        assert_eq!(max_referenced_event(&SymExpr::Input(0)), None);
    }
}
