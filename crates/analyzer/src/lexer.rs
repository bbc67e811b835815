//! A hand-rolled token scanner for Rust source.
//!
//! The analyzer has no crates.io access, so there is no `syn`; a
//! token-level scan is the right altitude for the rules it checks anyway:
//! every rule keys on identifier/punctuation sequences (`.unwrap(`,
//! `lock_device(`, `#[test]`), none needs a full syntax tree.  The lexer
//! handles the parts that a naive text search gets wrong — comments
//! (line, nested block, doc), string/char/lifetime literals, raw strings —
//! so `"panic!"` inside a string literal or a doc example is never
//! mistaken for code.

/// The coarse kind of one token.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokKind {
    /// Identifier or keyword.
    Ident,
    /// Numeric literal (integer part only; `1.5` lexes as `1`, `.`, `5`).
    Num,
    /// String or byte-string literal (cooked or raw).
    Str,
    /// Character literal.
    Char,
    /// Lifetime (`'a`).
    Lifetime,
    /// A single punctuation character.
    Punct,
}

/// One token with its 1-based source line.
#[derive(Debug, Clone)]
pub struct Tok {
    /// Token kind.
    pub kind: TokKind,
    /// Exact source text (a single character for punctuation).
    pub text: String,
    /// 1-based line the token starts on.
    pub line: u32,
}

impl Tok {
    /// Whether this token is the identifier `s`.
    pub fn is_ident(&self, s: &str) -> bool {
        self.kind == TokKind::Ident && self.text == s
    }

    /// Whether this token is the punctuation character `c`.
    pub fn is_punct(&self, c: char) -> bool {
        self.kind == TokKind::Punct && self.text.len() == 1 && self.text.starts_with(c)
    }
}

/// Lexer output: the token stream plus every `//` comment (the carrier of
/// `analyzer:allow` directives) with its line number.
#[derive(Debug, Default)]
pub struct Lexed {
    /// All non-comment tokens in source order.
    pub tokens: Vec<Tok>,
    /// `(line, text)` of every line comment, `//` included.
    pub comments: Vec<(u32, String)>,
}

/// Lex `src` into tokens and line comments.  The scanner never fails: a
/// malformed literal at end-of-input simply terminates the stream.
pub fn lex(src: &str) -> Lexed {
    let bytes = src.as_bytes();
    let mut out = Lexed::default();
    let mut i = 0usize;
    let mut line = 1u32;

    // Track newlines while advancing from `from` to `to`.
    let count_lines = |bytes: &[u8], from: usize, to: usize| -> u32 {
        bytes[from..to.min(bytes.len())].iter().filter(|&&b| b == b'\n').count() as u32
    };

    while i < bytes.len() {
        let b = bytes[i];
        match b {
            b'\n' => {
                line += 1;
                i += 1;
            }
            b if b.is_ascii_whitespace() => i += 1,
            b'/' if bytes.get(i + 1) == Some(&b'/') => {
                let end = bytes[i..]
                    .iter()
                    .position(|&b| b == b'\n')
                    .map(|p| i + p)
                    .unwrap_or(bytes.len());
                out.comments.push((line, src[i..end].to_string()));
                i = end;
            }
            b'/' if bytes.get(i + 1) == Some(&b'*') => {
                // Nested block comment.
                let mut depth = 1u32;
                let mut j = i + 2;
                while j < bytes.len() && depth > 0 {
                    if bytes[j] == b'/' && bytes.get(j + 1) == Some(&b'*') {
                        depth += 1;
                        j += 2;
                    } else if bytes[j] == b'*' && bytes.get(j + 1) == Some(&b'/') {
                        depth -= 1;
                        j += 2;
                    } else {
                        j += 1;
                    }
                }
                line += count_lines(bytes, i, j);
                i = j;
            }
            b'"' => {
                let j = scan_string(bytes, i + 1);
                out.tokens.push(Tok { kind: TokKind::Str, text: src[i..j].to_string(), line });
                line += count_lines(bytes, i, j);
                i = j;
            }
            b'\'' => {
                // Lifetime vs char literal: `'ident` not followed by a
                // closing quote is a lifetime.
                let is_lifetime = matches!(bytes.get(i + 1), Some(c) if c.is_ascii_alphabetic() || *c == b'_')
                    && bytes.get(i + 2) != Some(&b'\'');
                if is_lifetime {
                    let mut j = i + 1;
                    while j < bytes.len() && (bytes[j].is_ascii_alphanumeric() || bytes[j] == b'_')
                    {
                        j += 1;
                    }
                    out.tokens.push(Tok {
                        kind: TokKind::Lifetime,
                        text: src[i..j].to_string(),
                        line,
                    });
                    i = j;
                } else {
                    let mut j = i + 1;
                    while j < bytes.len() {
                        match bytes[j] {
                            b'\\' => j += 2,
                            b'\'' => {
                                j += 1;
                                break;
                            }
                            _ => j += 1,
                        }
                    }
                    out.tokens.push(Tok { kind: TokKind::Char, text: src[i..j].to_string(), line });
                    i = j;
                }
            }
            b'r' | b'b' if starts_raw_or_byte_string(bytes, i) => {
                let j = scan_raw_or_byte_string(bytes, i);
                out.tokens.push(Tok { kind: TokKind::Str, text: src[i..j].to_string(), line });
                line += count_lines(bytes, i, j);
                i = j;
            }
            b if b.is_ascii_alphabetic() || b == b'_' => {
                let mut j = i + 1;
                while j < bytes.len() && (bytes[j].is_ascii_alphanumeric() || bytes[j] == b'_') {
                    j += 1;
                }
                out.tokens.push(Tok { kind: TokKind::Ident, text: src[i..j].to_string(), line });
                i = j;
            }
            b if b.is_ascii_digit() => {
                // Digits, `_` separators and alphanumeric suffixes/radix
                // prefixes; dots are left out so `0..n` lexes cleanly.
                let mut j = i + 1;
                while j < bytes.len() && (bytes[j].is_ascii_alphanumeric() || bytes[j] == b'_') {
                    j += 1;
                }
                out.tokens.push(Tok { kind: TokKind::Num, text: src[i..j].to_string(), line });
                i = j;
            }
            _ => {
                out.tokens.push(Tok {
                    kind: TokKind::Punct,
                    text: src[i..i + 1].to_string(),
                    line,
                });
                i += 1;
            }
        }
    }
    out
}

/// Scan a cooked string body starting *after* the opening quote; returns
/// the index one past the closing quote.
fn scan_string(bytes: &[u8], mut j: usize) -> usize {
    while j < bytes.len() {
        match bytes[j] {
            b'\\' => j += 2,
            b'"' => return j + 1,
            _ => j += 1,
        }
    }
    j
}

/// Does `r"`, `r#"`, `b"`, `br#"`, ... start at `i`?
fn starts_raw_or_byte_string(bytes: &[u8], i: usize) -> bool {
    let mut j = i;
    // Optional second prefix letter (`br`, `rb` is not legal Rust but
    // accepting it is harmless for a linter).
    if matches!(bytes.get(j), Some(b'r') | Some(b'b')) {
        j += 1;
    }
    if matches!(bytes.get(j), Some(b'r') | Some(b'b')) && bytes.get(j) != bytes.get(i) {
        j += 1;
    }
    while bytes.get(j) == Some(&b'#') {
        j += 1;
    }
    bytes.get(j) == Some(&b'"')
}

/// Scan a raw/byte string starting at its prefix; returns the index one
/// past the closing delimiter.
fn scan_raw_or_byte_string(bytes: &[u8], i: usize) -> usize {
    let mut j = i;
    while matches!(bytes.get(j), Some(b'r') | Some(b'b')) {
        j += 1;
    }
    let mut hashes = 0usize;
    while bytes.get(j) == Some(&b'#') {
        hashes += 1;
        j += 1;
    }
    if bytes.get(j) != Some(&b'"') {
        return i + 1; // Not actually a string; treat the letter as consumed.
    }
    j += 1;
    if hashes == 0 {
        // A raw string without hashes still ignores escapes.
        while j < bytes.len() {
            if bytes[j] == b'"' {
                return j + 1;
            }
            j += 1;
        }
        return j;
    }
    while j < bytes.len() {
        if bytes[j] == b'"'
            && bytes[j + 1..].iter().take(hashes).filter(|&&b| b == b'#').count() == hashes
        {
            return j + 1 + hashes;
        }
        j += 1;
    }
    j
}

#[cfg(test)]
mod tests {
    use super::*;

    fn idents(src: &str) -> Vec<String> {
        lex(src).tokens.into_iter().filter(|t| t.kind == TokKind::Ident).map(|t| t.text).collect()
    }

    #[test]
    fn strings_and_comments_are_not_code() {
        let src = r##"
// panic! in a comment
/* unwrap() in /* a nested */ block comment */
let s = "panic!(\"inside a string\")";
let r = r#"unwrap() inside a raw string"#;
let c = 'x';
"##;
        let ids = idents(src);
        assert!(!ids.contains(&"panic".to_string()));
        assert!(!ids.contains(&"unwrap".to_string()));
        assert!(ids.contains(&"let".to_string()));
    }

    #[test]
    fn line_comments_are_captured_with_line_numbers() {
        let src = "let a = 1;\n// analyzer:allow(panic_freedom) reason\nlet b = 2;\n";
        let lexed = lex(src);
        assert_eq!(lexed.comments.len(), 1);
        assert_eq!(lexed.comments[0].0, 2);
        assert!(lexed.comments[0].1.contains("analyzer:allow"));
    }

    #[test]
    fn lifetimes_are_not_char_literals() {
        let lexed = lex("fn f<'a>(x: &'a str) -> char { 'b' }");
        let lifetimes: Vec<_> =
            lexed.tokens.iter().filter(|t| t.kind == TokKind::Lifetime).collect();
        assert_eq!(lifetimes.len(), 2);
        let chars: Vec<_> = lexed.tokens.iter().filter(|t| t.kind == TokKind::Char).collect();
        assert_eq!(chars.len(), 1);
        assert_eq!(chars[0].text, "'b'");
    }

    #[test]
    fn token_lines_are_one_based_and_accurate() {
        let lexed = lex("a\n\nb . c\n\"multi\nline\"\nd");
        let find = |name: &str| lexed.tokens.iter().find(|t| t.text == name).unwrap().line;
        assert_eq!(find("a"), 1);
        assert_eq!(find("b"), 3);
        assert_eq!(find("c"), 3);
        assert_eq!(find("d"), 6, "multi-line string advances the line counter");
    }

    #[test]
    fn ranges_do_not_swallow_numbers() {
        let lexed = lex("for i in 0..10 {}");
        let nums: Vec<_> = lexed
            .tokens
            .iter()
            .filter(|t| t.kind == TokKind::Num)
            .map(|t| t.text.clone())
            .collect();
        assert_eq!(nums, vec!["0", "10"]);
    }
}
