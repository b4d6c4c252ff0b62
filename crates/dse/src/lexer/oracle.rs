//! The reference lexer, kept as a test oracle.
//!
//! This is the lexer as first written: it copies the source into a
//! `Vec<char>`, collects every token's text char by char, and tries
//! each operator by building its `Vec<char>`. [`super::lex`] scans the
//! source's bytes in place and must return exactly what this one
//! returns: the same tokens, or the same error message at the same
//! character index. Tests compare the two; nothing else calls this.

use super::{LexError, Token};

const PUNCTS: &[&str] = &[
    "===", "!==", "==", "!=", "<=", ">=", "&&", "||", "=", "<", ">", "+", "-", "*", "%", "(", ")",
    "{", "}", "[", "]", ";", ",", ".", "!", ":", "?", "/",
];

/// Tokenizes mini-JS source over a `Vec<char>` copy of it.
///
/// Regex literals are recognized by position: a `/` that begins an
/// expression (after an operator, `(`, `,`, `=`, `return`, …) starts a
/// regex; otherwise it is division.
///
/// # Errors
///
/// Returns [`LexError`] on unterminated strings/regexes or stray bytes.
pub fn lex(src: &str) -> Result<Vec<Token>, LexError> {
    let chars: Vec<char> = src.chars().collect();
    let mut tokens = Vec::new();
    let mut i = 0;
    // Tracks whether `/` starts a regex (expression position).
    let mut expect_value = true;
    while i < chars.len() {
        let c = chars[i];
        if c.is_whitespace() {
            i += 1;
            continue;
        }
        // Comments.
        if c == '/' && chars.get(i + 1) == Some(&'/') {
            while i < chars.len() && chars[i] != '\n' {
                i += 1;
            }
            continue;
        }
        if c == '/' && chars.get(i + 1) == Some(&'*') {
            i += 2;
            while i + 1 < chars.len() && !(chars[i] == '*' && chars[i + 1] == '/') {
                i += 1;
            }
            i = (i + 2).min(chars.len());
            continue;
        }
        // Regex literal in expression position.
        if c == '/' && expect_value {
            let start = i;
            i += 1;
            let mut in_class = false;
            let mut escaped = false;
            loop {
                let Some(&rc) = chars.get(i) else {
                    return Err(LexError {
                        position: start,
                        message: "unterminated regex literal".into(),
                    });
                };
                if escaped {
                    escaped = false;
                } else {
                    match rc {
                        '\\' => escaped = true,
                        '[' => in_class = true,
                        ']' => in_class = false,
                        '/' if !in_class => break,
                        '\n' => {
                            return Err(LexError {
                                position: start,
                                message: "unterminated regex literal".into(),
                            })
                        }
                        _ => {}
                    }
                }
                i += 1;
            }
            i += 1; // closing '/'
            while i < chars.len() && chars[i].is_ascii_alphabetic() {
                i += 1;
            }
            tokens.push(Token::Regex(chars[start..i].iter().collect()));
            expect_value = false;
            continue;
        }
        // String literals.
        if c == '"' || c == '\'' {
            let quote = c;
            let start = i;
            i += 1;
            let mut value = String::new();
            loop {
                let Some(&sc) = chars.get(i) else {
                    return Err(LexError {
                        position: start,
                        message: "unterminated string literal".into(),
                    });
                };
                i += 1;
                match sc {
                    '\\' => {
                        let esc = chars.get(i).copied().unwrap_or('\\');
                        i += 1;
                        value.push(match esc {
                            'n' => '\n',
                            't' => '\t',
                            'r' => '\r',
                            '0' => '\0',
                            other => other,
                        });
                    }
                    q if q == quote => break,
                    other => value.push(other),
                }
            }
            tokens.push(Token::Str(value));
            expect_value = false;
            continue;
        }
        // Numbers.
        if c.is_ascii_digit() {
            let start = i;
            while i < chars.len() && (chars[i].is_ascii_digit() || chars[i] == '.') {
                i += 1;
            }
            let text: String = chars[start..i].iter().collect();
            let value = text.parse::<f64>().map_err(|_| LexError {
                position: start,
                message: format!("bad number literal `{text}`"),
            })?;
            tokens.push(Token::Num(value));
            expect_value = false;
            continue;
        }
        // Identifiers and keywords.
        if c.is_ascii_alphabetic() || c == '_' || c == '$' {
            let start = i;
            while i < chars.len()
                && (chars[i].is_ascii_alphanumeric() || chars[i] == '_' || chars[i] == '$')
            {
                i += 1;
            }
            let word: String = chars[start..i].iter().collect();
            // Keywords that put us back into expression position.
            expect_value = matches!(
                word.as_str(),
                "return" | "typeof" | "case" | "in" | "of" | "new" | "delete"
            );
            tokens.push(Token::Ident(word));
            continue;
        }
        // Punctuation (longest match first).
        let mut matched = false;
        for p in PUNCTS {
            if chars[i..].starts_with(&p.chars().collect::<Vec<_>>()[..]) {
                tokens.push(Token::Punct(p));
                i += p.len();
                // After `)`, `]` or an identifier-like token a `/` is
                // division; after operators it starts a regex.
                expect_value = !matches!(*p, ")" | "]");
                matched = true;
                break;
            }
        }
        if !matched {
            return Err(LexError {
                position: i,
                message: format!("unexpected character `{c}`"),
            });
        }
    }
    tokens.push(Token::Eof);
    Ok(tokens)
}
