//! A small comment- and string-aware Rust lexer.
//!
//! The checks in this crate reason about token *sequences*, never raw
//! text, so a `.lock()` inside a string literal or a doc comment can
//! never produce a finding. The lexer handles the corners that break
//! naive scanners: raw strings with arbitrary `#` depth, nested block
//! comments, lifetimes vs char literals, raw identifiers (`r#match`),
//! and byte/raw-byte string prefixes. It does not aim to be a complete
//! Rust lexer — floats, integer suffixes and multi-character operators
//! are all tokenized loosely — because the checks only need identifier,
//! literal, comment and single-character punctuation boundaries to be
//! exact.

/// What kind of lexeme a [`Tok`] is.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// An identifier or keyword (`fn`, `lock`, `state`).
    Ident,
    /// A raw identifier (`r#match`); [`Tok::text`] keeps the `r#`.
    RawIdent,
    /// A lifetime (`'a`) — *not* a char literal.
    Lifetime,
    /// A character or byte literal (`'x'`, `b'\n'`).
    Char,
    /// A string literal of any flavor (`"s"`, `r#"s"#`, `b"s"`); the
    /// token text includes the quotes and prefixes.
    Str,
    /// A numeric literal (lexed loosely: digits, `_`, `.`, hex letters).
    Num,
    /// A `//` comment, including doc comments, without the newline.
    LineComment,
    /// A `/* ... */` comment, nesting included.
    BlockComment,
    /// Any other single character (`{`, `.`, `=`, …).
    Punct,
}

/// One token: its kind, text, and 1-based source line.
#[derive(Clone, Debug)]
pub struct Tok {
    /// The lexeme kind.
    pub kind: Kind,
    /// The token text as it appears in the source.
    pub text: String,
    /// 1-based line of the token's first character.
    pub line: usize,
}

impl Tok {
    /// Whether this token is the given punctuation character.
    pub fn is_punct(&self, c: char) -> bool {
        self.kind == Kind::Punct && self.text.len() == c.len_utf8() && self.text.starts_with(c)
    }

    /// Whether this token is an identifier with the given text.
    pub fn is_ident(&self, s: &str) -> bool {
        self.kind == Kind::Ident && self.text == s
    }
}

/// Lexes `src` into a token stream. Unterminated literals and comments
/// are tolerated (the rest of the file becomes one token) — the checks
/// run on code that rustc may not have accepted yet.
pub fn lex(src: &str) -> Vec<Tok> {
    Lexer { chars: src.chars().collect(), pos: 0, line: 1 }.run()
}

struct Lexer {
    chars: Vec<char>,
    pos: usize,
    line: usize,
}

impl Lexer {
    fn run(mut self) -> Vec<Tok> {
        let mut toks = Vec::new();
        while let Some(c) = self.peek(0) {
            let line = self.line;
            let tok = match c {
                ch if ch.is_whitespace() => {
                    self.bump();
                    continue;
                }
                '/' if self.peek(1) == Some('/') => self.line_comment(),
                '/' if self.peek(1) == Some('*') => self.block_comment(),
                '\'' => self.lifetime_or_char(),
                '"' => self.string('"'),
                'r' | 'b' if self.raw_or_byte_prefix() => self.prefixed_literal(),
                ch if ch == '_' || ch.is_ascii_alphabetic() => self.ident(),
                ch if ch.is_ascii_digit() => self.number(),
                ch => {
                    self.bump();
                    Tok { kind: Kind::Punct, text: ch.to_string(), line }
                }
            };
            toks.push(tok);
        }
        toks
    }

    fn peek(&self, ahead: usize) -> Option<char> {
        self.chars.get(self.pos + ahead).copied()
    }

    fn bump(&mut self) -> Option<char> {
        let c = self.chars.get(self.pos).copied();
        if let Some(ch) = c {
            self.pos += 1;
            if ch == '\n' {
                self.line += 1;
            }
        }
        c
    }

    fn take_while(&mut self, text: &mut String, f: impl Fn(char) -> bool) {
        while let Some(c) = self.peek(0) {
            if !f(c) {
                break;
            }
            text.push(c);
            self.bump();
        }
    }

    fn line_comment(&mut self) -> Tok {
        let line = self.line;
        let mut text = String::new();
        self.take_while(&mut text, |c| c != '\n');
        Tok { kind: Kind::LineComment, text, line }
    }

    fn block_comment(&mut self) -> Tok {
        let line = self.line;
        let mut text = String::new();
        let mut depth = 0usize;
        while let Some(c) = self.peek(0) {
            if c == '/' && self.peek(1) == Some('*') {
                depth += 1;
                text.push_str("/*");
                self.bump();
                self.bump();
            } else if c == '*' && self.peek(1) == Some('/') {
                depth -= 1;
                text.push_str("*/");
                self.bump();
                self.bump();
                if depth == 0 {
                    break;
                }
            } else {
                text.push(c);
                self.bump();
            }
        }
        Tok { kind: Kind::BlockComment, text, line }
    }

    /// `'a` (lifetime) vs `'a'` (char). A quote is a lifetime when an
    /// identifier follows and the character after it is not another
    /// quote; everything else is a char literal, escapes included.
    fn lifetime_or_char(&mut self) -> Tok {
        let line = self.line;
        let next = self.peek(1);
        let is_ident_start = next.is_some_and(|c| c == '_' || c.is_ascii_alphabetic());
        if is_ident_start {
            // Find where the identifier run ends: 'abc' is a char-like
            // literal only if a closing quote immediately follows.
            let mut end = 2;
            while self.peek(end).is_some_and(|c| c == '_' || c.is_ascii_alphanumeric()) {
                end += 1;
            }
            if self.peek(end) != Some('\'') {
                let mut text = String::from("'");
                self.bump();
                self.take_while(&mut text, |c| c == '_' || c.is_ascii_alphanumeric());
                return Tok { kind: Kind::Lifetime, text, line };
            }
        }
        // Char literal: consume until the closing quote, honoring `\`.
        let mut text = String::new();
        text.push('\'');
        self.bump();
        while let Some(c) = self.bump() {
            text.push(c);
            if c == '\\' {
                if let Some(esc) = self.bump() {
                    text.push(esc);
                }
            } else if c == '\'' {
                break;
            }
        }
        Tok { kind: Kind::Char, text, line }
    }

    /// Whether the `r`/`b` at the cursor starts a literal rather than an
    /// identifier: `r"`, `r#"`, `r#ident`, `b"`, `b'`, `br"`, `br#"`.
    fn raw_or_byte_prefix(&self) -> bool {
        match (self.peek(0), self.peek(1)) {
            (Some('r'), Some('"' | '#')) => true,
            (Some('b'), Some('"' | '\'')) => true,
            (Some('b'), Some('r')) => matches!(self.peek(2), Some('"' | '#')),
            _ => false,
        }
    }

    fn prefixed_literal(&mut self) -> Tok {
        let line = self.line;
        let mut text = String::new();
        // Consume the prefix letters.
        while let Some(c) = self.peek(0) {
            if c == 'r' || c == 'b' {
                text.push(c);
                self.bump();
            } else {
                break;
            }
        }
        let raw = text.contains('r');
        match self.peek(0) {
            Some('#') if raw => {
                // Raw string — or a raw identifier (`r#ident`).
                let mut hashes = 0;
                while self.peek(hashes) == Some('#') {
                    hashes += 1;
                }
                if self.peek(hashes) != Some('"') {
                    // r#ident
                    text.push('#');
                    self.bump();
                    self.take_while(&mut text, |c| c == '_' || c.is_ascii_alphanumeric());
                    return Tok { kind: Kind::RawIdent, text, line };
                }
                for _ in 0..hashes {
                    text.push('#');
                    self.bump();
                }
                text.push('"');
                self.bump();
                self.raw_string_body(&mut text, hashes);
                Tok { kind: Kind::Str, text, line }
            }
            Some('"') if raw => {
                text.push('"');
                self.bump();
                self.raw_string_body(&mut text, 0);
                Tok { kind: Kind::Str, text, line }
            }
            Some('"') => {
                self.bump();
                let inner = self.string_body();
                Tok { kind: Kind::Str, text: text + "\"" + &inner, line }
            }
            Some('\'') => {
                let mut tok = self.lifetime_or_char();
                tok.kind = Kind::Char;
                tok.text = text + &tok.text;
                tok.line = line;
                tok
            }
            _ => {
                // Plain identifier that merely starts with r/b.
                self.take_while(&mut text, |c| c == '_' || c.is_ascii_alphanumeric());
                Tok { kind: Kind::Ident, text, line }
            }
        }
    }

    /// Body of a raw string already opened with `hashes` hashes; appends
    /// through the closing delimiter.
    fn raw_string_body(&mut self, text: &mut String, hashes: usize) {
        while let Some(c) = self.peek(0) {
            if c == '"' {
                let closed = (0..hashes).all(|i| self.peek(1 + i) == Some('#'));
                text.push('"');
                self.bump();
                if closed {
                    for _ in 0..hashes {
                        text.push('#');
                        self.bump();
                    }
                    return;
                }
            } else {
                text.push(c);
                self.bump();
            }
        }
    }

    fn string(&mut self, quote: char) -> Tok {
        let line = self.line;
        self.bump();
        let body = self.string_body();
        Tok { kind: Kind::Str, text: quote.to_string() + &body, line }
    }

    /// Consumes an escaped string body after the opening quote; returns
    /// the body including the closing quote.
    fn string_body(&mut self) -> String {
        let mut text = String::new();
        while let Some(c) = self.bump() {
            text.push(c);
            if c == '\\' {
                if let Some(esc) = self.bump() {
                    text.push(esc);
                }
            } else if c == '"' {
                break;
            }
        }
        text
    }

    fn ident(&mut self) -> Tok {
        let line = self.line;
        let mut text = String::new();
        self.take_while(&mut text, |c| c == '_' || c.is_ascii_alphanumeric());
        Tok { kind: Kind::Ident, text, line }
    }

    fn number(&mut self) -> Tok {
        let line = self.line;
        let mut text = String::new();
        self.take_while(&mut text, |c| c.is_ascii_alphanumeric() || c == '_');
        Tok { kind: Kind::Num, text, line }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<(Kind, String)> {
        lex(src).into_iter().map(|t| (t.kind, t.text)).collect()
    }

    #[test]
    fn idents_and_punct() {
        let toks = kinds("fn lock(&self) -> Guard { self.state.lock() }");
        assert!(toks.contains(&(Kind::Ident, "lock".into())));
        assert!(toks.contains(&(Kind::Punct, "{".into())));
    }

    #[test]
    fn line_and_nested_block_comments_are_single_tokens() {
        let toks = kinds("a // x.lock()\nb /* outer /* inner */ still */ c");
        assert_eq!(toks.iter().filter(|(k, _)| *k == Kind::Ident).count(), 3, "{toks:?}");
        assert!(toks.iter().any(|(k, t)| *k == Kind::LineComment && t.contains("x.lock()")));
        assert!(toks.iter().any(|(k, t)| *k == Kind::BlockComment && t.contains("inner")));
    }

    #[test]
    fn raw_strings_with_hashes_swallow_quotes_and_locks() {
        let toks = kinds(r##"let s = r#"a "quoted" .lock() body"# ; done"##);
        let strs: Vec<_> = toks.iter().filter(|(k, _)| *k == Kind::Str).collect();
        assert_eq!(strs.len(), 1);
        assert!(strs[0].1.contains(".lock()"));
        assert!(toks.contains(&(Kind::Ident, "done".into())));
    }

    #[test]
    fn lifetimes_are_not_char_literals() {
        let toks = kinds("fn f<'a>(x: &'a str) { let c = 'a'; let n = '\\n'; }");
        assert_eq!(toks.iter().filter(|(k, _)| *k == Kind::Lifetime).count(), 2);
        assert_eq!(toks.iter().filter(|(k, _)| *k == Kind::Char).count(), 2);
    }

    #[test]
    fn raw_identifiers_lex_as_one_token() {
        let toks = kinds("let r#match = r#fn; r#\"raw\"#;");
        assert_eq!(toks.iter().filter(|(k, _)| *k == Kind::RawIdent).count(), 2);
        assert_eq!(toks.iter().filter(|(k, _)| *k == Kind::Str).count(), 1);
    }

    #[test]
    fn byte_and_raw_byte_strings() {
        let toks = kinds(r##"let a = b"bytes"; let b2 = br#"raw .lock()"#; let c = b'x';"##);
        assert_eq!(toks.iter().filter(|(k, _)| *k == Kind::Str).count(), 2);
        assert_eq!(toks.iter().filter(|(k, _)| *k == Kind::Char).count(), 1);
    }

    #[test]
    fn string_escapes_do_not_end_the_literal() {
        let toks = kinds(r#"let s = "a \" .lock() \\"; x"#);
        let strs: Vec<_> = toks.iter().filter(|(k, _)| *k == Kind::Str).collect();
        assert_eq!(strs.len(), 1);
        assert!(strs[0].1.contains(".lock()"));
        assert!(toks.contains(&(Kind::Ident, "x".into())));
    }

    #[test]
    fn lines_are_tracked_through_multiline_tokens() {
        let toks = lex("a\n/* x\ny */\nb");
        let b = toks.iter().find(|t| t.is_ident("b")).unwrap();
        assert_eq!(b.line, 4);
    }
}
