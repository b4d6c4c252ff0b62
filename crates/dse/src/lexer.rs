//! Lexer for the mini-JS language.

use std::fmt;

pub mod oracle;

/// Token kinds.
#[derive(Debug, Clone, PartialEq)]
pub enum Token {
    /// Identifier or keyword.
    Ident(String),
    /// Number literal.
    Num(f64),
    /// String literal (already unescaped).
    Str(String),
    /// Regex literal text, including slashes and flags.
    Regex(String),
    /// Punctuation or operator.
    Punct(&'static str),
    /// End of input.
    Eof,
}

impl fmt::Display for Token {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Token::Ident(s) => write!(f, "{s}"),
            Token::Num(n) => write!(f, "{n}"),
            Token::Str(s) => write!(f, "{s:?}"),
            Token::Regex(s) => write!(f, "{s}"),
            Token::Punct(p) => write!(f, "{p}"),
            Token::Eof => write!(f, "<eof>"),
        }
    }
}

/// A lexing error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LexError {
    /// Character index (not byte offset) in the source where the
    /// faulty token or character starts.
    pub position: usize,
    /// Description.
    pub message: String,
}

impl fmt::Display for LexError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "lex error at {}: {}", self.position, self.message)
    }
}

impl std::error::Error for LexError {}

/// Tokenizes mini-JS source.
///
/// Regex literals are recognized by position: a `/` that begins an
/// expression (after an operator, `(`, `,`, `=`, `return`, …) starts a
/// regex; otherwise it is division.
///
/// The scan walks the source's bytes in place. Every delimiter the
/// rules test is ASCII, so identifier, number, string and regex text is
/// sliced from the source, and a non-ASCII character is decoded only
/// where a rule looks at it: outside literals and comments it is either
/// whitespace or an error. Lexing allocates the token vector and one
/// block per token that carries text, nothing per character or per
/// operator candidate. [`oracle::lex`] is the reference it must agree
/// with.
///
/// # Errors
///
/// Returns [`LexError`] on unterminated strings/regexes or stray bytes.
pub fn lex(src: &str) -> Result<Vec<Token>, LexError> {
    let bytes = src.as_bytes();
    let mut tokens = Vec::new();
    let mut i = 0;
    // Tracks whether `/` starts a regex (expression position).
    let mut expect_value = true;
    while i < bytes.len() {
        let b = bytes[i];
        if !b.is_ascii() {
            // No rule below takes a non-ASCII character.
            let c = char_at(src, i);
            if c.is_whitespace() {
                i += c.len_utf8();
                continue;
            }
            return Err(unexpected(src, i, c));
        }
        if char::from(b).is_whitespace() {
            i += 1;
            continue;
        }
        if b == b'/' {
            // Comments.
            match bytes.get(i + 1) {
                Some(b'/') => {
                    i = find(bytes, i, b"\n").unwrap_or(bytes.len());
                    continue;
                }
                Some(b'*') => {
                    i = find(bytes, i + 2, b"*/").map_or(bytes.len(), |end| end + 2);
                    continue;
                }
                _ => {}
            }
            // Regex literal in expression position.
            if expect_value {
                let start = i;
                i = regex_end(bytes, i + 1).ok_or_else(|| LexError {
                    position: char_index(src, start),
                    message: "unterminated regex literal".into(),
                })?;
                while i < bytes.len() && bytes[i].is_ascii_alphabetic() {
                    i += 1;
                }
                tokens.push(Token::Regex(src[start..i].to_string()));
                expect_value = false;
                continue;
            }
        }
        // String literals.
        if b == b'"' || b == b'\'' {
            let start = i;
            let end = string_end(bytes, i + 1, b).ok_or_else(|| LexError {
                position: char_index(src, start),
                message: "unterminated string literal".into(),
            })?;
            tokens.push(Token::Str(unescape(&src[start + 1..end])));
            i = end + 1;
            expect_value = false;
            continue;
        }
        // Numbers.
        if b.is_ascii_digit() {
            let start = i;
            while i < bytes.len() && (bytes[i].is_ascii_digit() || bytes[i] == b'.') {
                i += 1;
            }
            let text = &src[start..i];
            let value = text.parse::<f64>().map_err(|_| LexError {
                position: char_index(src, start),
                message: format!("bad number literal `{text}`"),
            })?;
            tokens.push(Token::Num(value));
            expect_value = false;
            continue;
        }
        // Identifiers and keywords.
        if is_ident_byte(b) {
            let start = i;
            while i < bytes.len() && (is_ident_byte(bytes[i]) || bytes[i].is_ascii_digit()) {
                i += 1;
            }
            let word = &src[start..i];
            // Keywords that put us back into expression position.
            expect_value = matches!(
                word,
                "return" | "typeof" | "case" | "in" | "of" | "new" | "delete"
            );
            tokens.push(Token::Ident(word.to_string()));
            continue;
        }
        let Some(p) = punct(&bytes[i..]) else {
            return Err(unexpected(src, i, char::from(b)));
        };
        tokens.push(Token::Punct(p));
        i += p.len();
        // After `)`, `]` or an identifier-like token a `/` is division;
        // after operators it starts a regex.
        expect_value = !matches!(p, ")" | "]");
    }
    tokens.push(Token::Eof);
    Ok(tokens)
}

/// The punctuation or operator at the start of `rest`, longest match
/// first.
fn punct(rest: &[u8]) -> Option<&'static str> {
    Some(match rest {
        [b'=', b'=', b'=', ..] => "===",
        [b'!', b'=', b'=', ..] => "!==",
        [b'=', b'=', ..] => "==",
        [b'!', b'=', ..] => "!=",
        [b'<', b'=', ..] => "<=",
        [b'>', b'=', ..] => ">=",
        [b'&', b'&', ..] => "&&",
        [b'|', b'|', ..] => "||",
        [b'=', ..] => "=",
        [b'<', ..] => "<",
        [b'>', ..] => ">",
        [b'+', ..] => "+",
        [b'-', ..] => "-",
        [b'*', ..] => "*",
        [b'%', ..] => "%",
        [b'(', ..] => "(",
        [b')', ..] => ")",
        [b'{', ..] => "{",
        [b'}', ..] => "}",
        [b'[', ..] => "[",
        [b']', ..] => "]",
        [b';', ..] => ";",
        [b',', ..] => ",",
        [b'.', ..] => ".",
        [b'!', ..] => "!",
        [b':', ..] => ":",
        [b'?', ..] => "?",
        [b'/', ..] => "/",
        _ => return None,
    })
}

/// True for the bytes that may start an identifier.
fn is_ident_byte(b: u8) -> bool {
    b.is_ascii_alphabetic() || b == b'_' || b == b'$'
}

/// The first index at or after `from` where `needle` starts.
fn find(bytes: &[u8], from: usize, needle: &[u8]) -> Option<usize> {
    let rest = bytes.get(from..)?;
    rest.windows(needle.len())
        .position(|w| w == needle)
        .map(|at| from + at)
}

/// One past the closing `/` of a regex body starting at `i`, or `None`
/// when a newline or the end of input comes first. A `/` inside a class
/// or after a backslash does not close it. Scanning bytes is exact: an
/// escape covers the lead byte of a multi-byte character, and its
/// continuation bytes are never delimiters.
fn regex_end(bytes: &[u8], mut i: usize) -> Option<usize> {
    let mut in_class = false;
    let mut escaped = false;
    loop {
        let b = *bytes.get(i)?;
        if escaped {
            escaped = false;
        } else {
            match b {
                b'\\' => escaped = true,
                b'[' => in_class = true,
                b']' => in_class = false,
                b'/' if !in_class => return Some(i + 1),
                b'\n' => return None,
                _ => {}
            }
        }
        i += 1;
    }
}

/// The index of the `quote` closing a string body starting at `i`, or
/// `None` at the end of input. A backslash escapes the next character.
fn string_end(bytes: &[u8], mut i: usize, quote: u8) -> Option<usize> {
    loop {
        match *bytes.get(i)? {
            b'\\' => i += 2,
            b if b == quote => return Some(i),
            _ => i += 1,
        }
    }
}

/// A string body's value: `\n`, `\t`, `\r` and `\0` stand for their
/// control characters, and a backslash before any other character
/// stands for that character. Escapes only shorten the text, so the
/// value takes one block.
fn unescape(body: &str) -> String {
    if !body.contains('\\') {
        return body.to_string();
    }
    let mut value = String::with_capacity(body.len());
    let mut chars = body.chars();
    while let Some(c) = chars.next() {
        if c != '\\' {
            value.push(c);
            continue;
        }
        // A body never ends in a lone backslash: it would have escaped
        // the closing quote.
        value.push(match chars.next().unwrap_or('\\') {
            'n' => '\n',
            't' => '\t',
            'r' => '\r',
            '0' => '\0',
            other => other,
        });
    }
    value
}

/// The character starting at byte `i` of `src`.
fn char_at(src: &str, i: usize) -> char {
    src[i..].chars().next().expect("`i` starts a character")
}

/// The character index of byte `i`: what [`LexError::position`] holds.
fn char_index(src: &str, i: usize) -> usize {
    src[..i].chars().count()
}

fn unexpected(src: &str, i: usize, c: char) -> LexError {
    LexError {
        position: char_index(src, i),
        message: format!("unexpected character `{c}`"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basic_tokens() {
        let tokens = lex("let x = 42;").expect("lex");
        assert_eq!(
            tokens,
            vec![
                Token::Ident("let".into()),
                Token::Ident("x".into()),
                Token::Punct("="),
                Token::Num(42.0),
                Token::Punct(";"),
                Token::Eof,
            ]
        );
    }

    #[test]
    fn regex_vs_division() {
        let tokens = lex("let r = /ab+/g; let q = x / y;").expect("lex");
        assert!(tokens.contains(&Token::Regex("/ab+/g".into())));
        assert!(tokens.contains(&Token::Punct("/")));
    }

    #[test]
    fn regex_with_class_slash() {
        let tokens = lex(r"let r = /a[/]b/;").expect("lex");
        assert!(tokens.contains(&Token::Regex("/a[/]b/".into())));
    }

    #[test]
    fn string_escapes() {
        let tokens = lex(r#"let s = "a\nb";"#).expect("lex");
        assert!(tokens.contains(&Token::Str("a\nb".into())));
    }

    #[test]
    fn comments_skipped() {
        let tokens = lex("// hi\nlet /* there */ x = 1;").expect("lex");
        assert_eq!(tokens.len(), 6);
    }

    #[test]
    fn listing1_regex() {
        // The regex from Listing 1 of the paper.
        let tokens = lex(r"let parts = /<(\w+)>([0-9]*)<\/\1>/.exec(arg);").expect("lex");
        assert!(tokens
            .iter()
            .any(|t| matches!(t, Token::Regex(r) if r.contains("\\w"))));
    }

    #[test]
    fn errors() {
        assert!(lex("\"unterminated").is_err());
        assert!(lex("let r = /unterminated").is_err());
        assert!(lex("let x = #;").is_err());
    }
}
